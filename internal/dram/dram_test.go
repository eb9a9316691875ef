package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/trace"
)

func smallCfg() Config {
	return Config{Banks: 2, RowWords: 16, TRCD: 3, TCAS: 2, TRP: 4, BusCyclesPerWord: 1}
}

// hbm2 is a geometry loosely modeled on one HBM2 pseudo-channel: 16 banks
// with small pages behind a bus that moves one word per cycle.
var hbm2 = Config{
	Banks: 16, RowWords: 1024,
	TRCD: 14, TCAS: 14, TRP: 14,
	TREFI: 3900, TRFC: 160,
	BusCyclesPerWord: 1,
}

// sameDevice reports whether two models hold the same bank, bus and refresh
// state.
func sameDevice(a, b *Model) bool {
	return reflect.DeepEqual(a.banks, b.banks) && a.bus == b.bus &&
		a.nextRefresh == b.nextRefresh && a.refreshHold == b.refreshHold
}

// avgLatency is the mean per-word latency.
func avgLatency(s Stats) float64 { return float64(s.TotalLatency) / float64(s.Requests) }

// wordsPerCycle is the delivered bandwidth over the busy interval.
func wordsPerCycle(s Stats) float64 { return float64(s.Requests) / float64(s.LastCompletion) }

// busUtilization is the data-bus occupancy up to the last completion.
func busUtilization(s Stats) float64 { return float64(s.BusBusy) / float64(s.LastCompletion) }

func TestValidate(t *testing.T) {
	if err := DDR3().Validate(); err != nil {
		t.Errorf("DDR3 invalid: %v", err)
	}
	bad := []Config{
		{Banks: 0, RowWords: 1, BusCyclesPerWord: 1},
		{Banks: 1, RowWords: 0, BusCyclesPerWord: 1},
		{Banks: 1, RowWords: 1, BusCyclesPerWord: 0},
		{Banks: 1, RowWords: 1, TCAS: -1, BusCyclesPerWord: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted %+v", i, cfg)
		}
	}
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	m, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss on a precharged bank: no tRP, just tRCD + tCAS + bus.
	done := m.serve(0, 0, 0, 1)
	if want := int64(3 + 2 + 1); done != want {
		t.Errorf("cold miss completion = %d, want %d", done, want)
	}
	s := m.Stats()
	if s.RowMisses != 1 || s.RowHits != 0 {
		t.Errorf("hits/misses = %d/%d", s.RowHits, s.RowMisses)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	m, _ := New(smallCfg())
	first := m.serve(0, 0, 0, 1)
	second := m.serve(first, 1, 0, 1) // same row: hit
	hitLat := second - first
	third := m.serve(second, 64, 0, 1) // row 4, same bank 0: conflict miss with tRP
	missLat := third - second
	if hitLat >= missLat {
		t.Errorf("row hit latency %d not faster than conflict miss %d", hitLat, missLat)
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowMisses != 2 {
		t.Errorf("hits/misses = %d/%d", s.RowHits, s.RowMisses)
	}
	// Conflict miss pays precharge: tRP + tRCD + tCAS + bus.
	if want := int64(4 + 3 + 2 + 1); missLat != want {
		t.Errorf("conflict miss latency = %d, want %d", missLat, want)
	}
}

func TestBankParallelism(t *testing.T) {
	// Two streams to different banks overlap; same bank serializes.
	cfg := smallCfg()
	m1, _ := New(cfg)
	m1.serve(0, 0, 0, 1)        // bank 0 (row 0)
	d1 := m1.serve(0, 16, 0, 1) // row 1 -> bank 1: overlapped activate
	m2, _ := New(cfg)
	m2.serve(0, 0, 0, 1)        // bank 0
	d2 := m2.serve(0, 64, 0, 1) // row 4 -> bank 0: serialized
	if d1 >= d2 {
		t.Errorf("different-bank completion %d should beat same-bank %d", d1, d2)
	}
}

func TestBusSerializes(t *testing.T) {
	cfg := smallCfg()
	cfg.BusCyclesPerWord = 4
	m, _ := New(cfg)
	m.Consume(0, []int64{0, 1, 2, 3}) // same row: hits after first
	s := m.Stats()
	// 4 words x 4 bus cycles each cannot complete before 16 + first word's setup.
	if s.LastCompletion < 16 {
		t.Errorf("LastCompletion = %d, want >= 16 (bus-bound)", s.LastCompletion)
	}
	if s.BusBusy != 16 {
		t.Errorf("BusBusy = %d, want 16", s.BusBusy)
	}
	if u := busUtilization(s); u <= 0 || u > 1 {
		t.Errorf("bus utilization = %v", u)
	}
}

func TestSequentialStreamMostlyHits(t *testing.T) {
	m, _ := New(DDR3())
	for a := int64(0); a < 10_000; a++ {
		m.serve(a, a, 0, 1)
	}
	s := m.Stats()
	if s.Requests != 10_000 {
		t.Errorf("Requests = %d", s.Requests)
	}
	if s.RowHitRate() < 0.99 {
		t.Errorf("sequential RowHitRate = %v, want > 0.99", s.RowHitRate())
	}
	if w := wordsPerCycle(s); w < 0.9 {
		t.Errorf("sequential bandwidth = %v words/cycle, want near 1", w)
	}
}

func TestRandomStreamWorseThanSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq, _ := New(DDR3())
	rnd, _ := New(DDR3())
	for i := int64(0); i < 5000; i++ {
		seq.serve(i, i, 0, 1)
		rnd.serve(i, rng.Int63n(1<<24), 0, 1)
	}
	if rnd.Stats().RowHitRate() >= seq.Stats().RowHitRate() {
		t.Errorf("random hit rate %v >= sequential %v",
			rnd.Stats().RowHitRate(), seq.Stats().RowHitRate())
	}
	if avgLatency(rnd.Stats()) <= avgLatency(seq.Stats()) {
		t.Errorf("random latency %v <= sequential %v",
			avgLatency(rnd.Stats()), avgLatency(seq.Stats()))
	}
}

func TestStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, _ := New(smallCfg())
	cycle := int64(0)
	var prevDone int64
	for i := 0; i < 2000; i++ {
		cycle += rng.Int63n(3)
		done := m.serve(cycle, rng.Int63n(4096), 0, 1)
		if done <= cycle {
			t.Fatalf("completion %d not after arrival %d", done, cycle)
		}
		// One bus: transfers complete in request order.
		if done < prevDone {
			t.Fatalf("request %d completes at %d, before the previous one's %d", i, done, prevDone)
		}
		prevDone = done
	}
	s := m.Stats()
	if s.RowHits+s.RowMisses != s.Requests {
		t.Errorf("hits %d + misses %d != requests %d", s.RowHits, s.RowMisses, s.Requests)
	}
	if s.MaxLatency < int64(avgLatency(s)) {
		t.Errorf("MaxLatency %d below average %v", s.MaxLatency, avgLatency(s))
	}
	if u := busUtilization(s); u > 1 {
		t.Errorf("bus utilization %v > 1", u)
	}
}

func TestEmptyStats(t *testing.T) {
	m, _ := New(smallCfg())
	s := m.Stats()
	if s != (Stats{}) || s.RowHitRate() != 0 {
		t.Error("empty model reports nonzero stats")
	}
}

func TestHBM2Preset(t *testing.T) {
	if err := hbm2.Validate(); err != nil {
		t.Fatalf("HBM2 invalid: %v", err)
	}
	// Under bank-conflict-heavy random traffic, the many-banked HBM2
	// geometry must beat DDR3 on average latency.
	rng := rand.New(rand.NewSource(55))
	ddr, _ := New(DDR3())
	hbm, _ := New(hbm2)
	for i := int64(0); i < 20_000; i++ {
		a := rng.Int63n(1 << 22)
		ddr.serve(i, a, 0, 1)
		hbm.serve(i, a, 0, 1)
	}
	if avgLatency(hbm.Stats()) >= avgLatency(ddr.Stats()) {
		t.Errorf("HBM2 latency %v not below DDR3 %v under random traffic",
			avgLatency(hbm.Stats()), avgLatency(ddr.Stats()))
	}
}

func TestRefreshApplied(t *testing.T) {
	cfg := smallCfg()
	cfg.TREFI = 100
	cfg.TRFC = 20
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.serve(0, 0, 0, 1)
	// Jump past three refresh intervals: all due windows are applied.
	m.serve(350, 0, 0, 1)
	if got := m.Stats().Refreshes; got != 3 {
		t.Errorf("Refreshes = %d, want 3", got)
	}
	// A request landing inside the refresh hold waits it out.
	m2, _ := New(cfg)
	m2.serve(100, 1, 0, 1) // refresh at 100 holds until 120; row hit after
	lat := m2.Stats().MaxLatency
	if lat < cfg.TRFC {
		t.Errorf("refresh-blocked latency %d < TRFC %d", lat, cfg.TRFC)
	}
}

func TestConfigValidateExtended(t *testing.T) {
	bad := []Config{
		{Banks: 1, RowWords: 1, BusCyclesPerWord: 1, TREFI: 10, TRFC: 10},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

// TestConsumeRunsMatchesConsume: the run path must produce the stats of the
// per-word reference (refConsume).
func TestConsumeRunsMatchesConsume(t *testing.T) {
	batches := []struct {
		cycle int64
		runs  []trace.Run
	}{
		{0, []trace.Run{{Base: 0, Stride: 1, Count: 64}}},
		{10, []trace.Run{{Base: 4096, Stride: 8, Count: 16}, {Base: 100, Stride: 0, Count: 1}}},
		{20, []trace.Run{{Base: 64, Stride: -1, Count: 32}}},
		{8000, []trace.Run{{Base: 1 << 20, Stride: 2048, Count: 8}}},
	}
	viaRuns, err := New(DDR3())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(DDR3())
	for _, b := range batches {
		viaRuns.ConsumeRuns(b.cycle, b.runs)
		refConsume(ref, b.cycle, trace.ExpandRuns(b.runs, nil))
	}
	if viaRuns.Stats() != ref.Stats() {
		t.Errorf("run path %+v != per-word reference %+v", viaRuns.Stats(), ref.Stats())
	}
}

// refRequest is the per-word model the run loop must reproduce: the
// one-word request as it was written before the model serviced a run per
// call, one full address decode and one stats update per word.
func refRequest(m *Model, arrival, addr int64) int64 {
	cfg := m.cfg

	// Apply any refresh windows due before this request.
	if cfg.TREFI > 0 {
		for arrival >= m.nextRefresh {
			hold := m.nextRefresh + cfg.TRFC
			if hold > m.refreshHold {
				m.refreshHold = hold
			}
			m.nextRefresh += cfg.TREFI
			m.stats.Refreshes++
		}
	}

	row, _ := floorDivMod(addr, cfg.RowWords)
	_, bank := floorDivMod(row, int64(cfg.Banks))
	b := &m.banks[bank]

	start := max(arrival, b.cmdFree)
	start = max(start, m.refreshHold)
	var ready int64
	if b.openRow == row {
		m.stats.RowHits++
		ready = start + cfg.TCAS
		b.cmdFree = start + cfg.BusCyclesPerWord
	} else {
		m.stats.RowMisses++
		activate := start + cfg.TRCD
		if b.openRow != precharged {
			activate += cfg.TRP
		}
		ready = activate + cfg.TCAS
		b.openRow = row
		b.cmdFree = activate + cfg.BusCyclesPerWord
	}

	// The data transfer occupies the bus.
	xferStart := max(ready, m.bus)
	done := xferStart + cfg.BusCyclesPerWord
	m.bus = done
	m.stats.BusBusy += cfg.BusCyclesPerWord

	m.stats.Requests++
	lat := done - arrival
	m.stats.TotalLatency += lat
	if lat > m.stats.MaxLatency {
		m.stats.MaxLatency = lat
	}
	if done > m.stats.LastCompletion {
		m.stats.LastCompletion = done
	}
	return done
}

// refConsume is the element path over refRequest.
func refConsume(m *Model, cycle int64, addrs []int64) {
	for _, a := range addrs {
		refRequest(m, cycle, a)
	}
}

// randomGeometry draws a configuration that no power-of-two shortcut
// survives: odd page and bank counts.
func randomGeometry(rng *rand.Rand) Config {
	cfg := Config{
		Banks:            1 + 2*rng.Intn(5),
		RowWords:         int64(1 + 2*rng.Intn(60)),
		TRCD:             rng.Int63n(15),
		TCAS:             rng.Int63n(15),
		TRP:              rng.Int63n(15),
		BusCyclesPerWord: 1 + rng.Int63n(3),
	}
	if rng.Intn(3) > 0 {
		cfg.TRFC = rng.Int63n(40)
		cfg.TREFI = cfg.TRFC + 1 + rng.Int63n(400)
	}
	return cfg
}

// randomRuns draws one cycle's batch: unit, 768-word (a BERT row), large,
// zero and negative strides, every address non-negative.
func randomRuns(rng *rand.Rand) []trace.Run {
	runs := make([]trace.Run, 1+rng.Intn(4))
	for i := range runs {
		r := trace.Run{Count: 1 + rng.Int63n(70)}
		switch rng.Intn(6) {
		case 0:
			r.Stride = 1
		case 1:
			r.Stride = 768
		case 2:
			r.Stride = 1 + rng.Int63n(1<<20)
		case 3:
			r.Stride = 0
		case 4:
			r.Stride = -1 - rng.Int63n(5000)
		default:
			r.Stride = 1 + rng.Int63n(40)
		}
		r.Base = rng.Int63n(1 << 22)
		if r.Stride < 0 {
			r.Base -= (r.Count - 1) * r.Stride
		}
		runs[i] = r
	}
	return runs
}

// TestRunLoopMatchesPerWordReference replays random run lists through the
// production entry points and, expanded, through the per-word reference, and
// requires the same statistics and the same device state at the end.
func TestRunLoopMatchesPerWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	noRefresh := DDR3()
	noRefresh.TREFI, noRefresh.TRFC = 0, 0
	cfgs := []Config{DDR3(), hbm2, noRefresh}
	for i := 0; i < 80; i++ {
		cfgs = append(cfgs, randomGeometry(rng))
	}
	for ci, cfg := range cfgs {
		got, err := New(cfg)
		if err != nil {
			t.Fatalf("config %d %+v: %v", ci, cfg, err)
		}
		want, _ := New(cfg)
		var cycle int64
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0: // same cycle: a second batch behind the first
			case 1: // idle gap spanning several refresh intervals
				cycle += rng.Int63n(30_000)
			default:
				cycle += rng.Int63n(50)
			}
			runs := randomRuns(rng)
			addrs := trace.ExpandRuns(runs, nil)
			if rng.Intn(4) == 0 {
				got.Consume(cycle, addrs)
			} else {
				got.ConsumeRuns(cycle, runs)
			}
			refConsume(want, cycle, addrs)
		}
		if got.Stats() != want.Stats() {
			t.Errorf("config %d %+v:\nrun loop  %+v\nreference %+v", ci, cfg, got.Stats(), want.Stats())
		}
		if !sameDevice(got, want) {
			t.Errorf("config %d %+v: final device state differs from the reference", ci, cfg)
		}
	}
}

// TestRequestIsTheOneWordRun: a one-word serve and the reference agree word
// for word, completion cycles included.
func TestRequestIsTheOneWordRun(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, cfg := range []Config{DDR3(), hbm2, randomGeometry(rng)} {
		got, _ := New(cfg)
		want, _ := New(cfg)
		var cycle int64
		for i := 0; i < 5000; i++ {
			cycle += rng.Int63n(4)
			a := rng.Int63n(1 << 20)
			if g, w := got.serve(cycle, a, 0, 1), refRequest(want, cycle, a); g != w {
				t.Fatalf("%+v: word %d completes at %d, reference %d", cfg, i, g, w)
			}
		}
		if got.Stats() != want.Stats() {
			t.Errorf("%+v: stats %+v, reference %+v", cfg, got.Stats(), want.Stats())
		}
	}
}

// TestRunBelowZeroDecodesPerWord: serve decodes a run's first word by
// floored division and steps floored rows from there, so a run reaching
// below zero lands on the (row, bank) the per-word reference decodes for
// each word, on one bank and on DDR3's eight.
func TestRunBelowZeroDecodesPerWord(t *testing.T) {
	small := Config{Banks: 1, RowWords: 16, TRCD: 3, TCAS: 2, TRP: 4, BusCyclesPerWord: 1}
	for _, c := range []struct {
		cfg  Config
		runs []trace.Run
		// allMiss marks words in rows of their own, on banks none shares.
		allMiss bool
	}{
		{small, []trace.Run{{Base: 40, Stride: -7, Count: 12}, {Base: -90, Stride: 9, Count: 20}}, false},
		// A word at or below -RowWords indexes a bank too; a word just
		// below zero is in row -1, not row 0, and row -1 is not a
		// precharged bank.
		{DDR3(), []trace.Run{{Base: -5000, Stride: 1, Count: 1}}, true},
		{DDR3(), []trace.Run{{Base: -5, Stride: 1, Count: 1}, {Base: 3, Stride: 1, Count: 1}, {Base: -2049, Stride: 1, Count: 1}}, true},
		{DDR3(), []trace.Run{{Base: -9000, Stride: 767, Count: 30}, {Base: 4100, Stride: -2047, Count: 9}, {Base: -3, Stride: 1, Count: 6}}, false},
	} {
		got, _ := New(c.cfg)
		want, _ := New(c.cfg)
		got.ConsumeRuns(5, c.runs)
		refConsume(want, 5, trace.ExpandRuns(c.runs, nil))
		if got.Stats() != want.Stats() || !sameDevice(got, want) {
			t.Errorf("%v: run loop %+v, reference %+v", c.runs, got.Stats(), want.Stats())
		}
		if c.allMiss && want.Stats().RowHits != 0 {
			t.Errorf("%v: %d row hits among words that each open a row", c.runs, want.Stats().RowHits)
		}
	}
}

// TestKeyIsTheFormattedConfig: Key is the configuration's %+v between the
// leading Channels:0 InterleaveWords:0 and the trailing Policy:0 every
// existing cache key carries, so a field added to Config fails here before it
// can silently change a key.
func TestKeyIsTheFormattedConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []Config{DDR3(), hbm2, randomGeometry(rng), randomGeometry(rng)} {
		fields := strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%+v", cfg), "{"), "}")
		want := "{Channels:0 InterleaveWords:0 " + fields + " Policy:0}"
		if got := cfg.Key(); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
	}
	const ddr3 = "{Channels:0 InterleaveWords:0 Banks:8 RowWords:2048 TRCD:11 TCAS:11 TRP:11 TREFI:7800 TRFC:139 BusCyclesPerWord:1 Policy:0}"
	if got := DDR3().Key(); got != ddr3 {
		t.Errorf("DDR3 key %q, want %q", got, ddr3)
	}
}

// feedCall is one ConsumeRuns call.
type feedCall struct {
	cycle int64
	runs  []trace.Run
}

// skewedFeed draws the DRAM-side calls a systolic fold sends: per cycle one
// run of up to 32 words at stride K-1, the skew of a K-wide operand (K 768,
// 3072 or random), its base one word higher each cycle and its count ramping
// up and down at the fold's edges. Folds restart the run elsewhere, write
// calls fall in between, some idle gaps outlast any backlog so the floor
// binds, and long feeds cross refresh windows.
func skewedFeed(rng *rand.Rand, calls int) []feedCall {
	var feed []feedCall
	var cycle int64
	for len(feed) < calls {
		k := [...]int64{768, 3072, 2 + rng.Int63n(5000)}[rng.Intn(3)]
		words := 1 + rng.Int63n(32)
		base := rng.Int63n(1 << 22)
		folds := 1 + rng.Int63n(200)
		var second int64 // a second operand row beside the first, or none
		if rng.Intn(4) == 0 {
			second = 1 + rng.Int63n(1<<16)
		}
		for i := int64(0); i < folds && len(feed) < calls; i++ {
			n := min(words, i+1, folds-i)
			runs := []trace.Run{{Base: base + i, Stride: k - 1, Count: n}}
			if second > 0 {
				runs = append(runs, trace.Run{Base: base + second + i, Stride: k - 1, Count: n})
			}
			feed = append(feed, feedCall{cycle, runs})
			if rng.Intn(16) == 0 { // a write-back at the same cycle
				wb := trace.Run{Base: 1<<23 + rng.Int63n(1<<20), Stride: 1, Count: 1 + rng.Int63n(8)}
				feed = append(feed, feedCall{cycle, []trace.Run{wb}})
			}
			cycle++
		}
		switch rng.Intn(6) {
		case 0: // idle long enough for the floor to bind
			cycle += 50_000 + rng.Int63n(200_000)
		case 1:
			cycle += rng.Int63n(2_000)
		default:
			cycle += rng.Int63n(4)
		}
	}
	return feed
}

// TestShiftReplayMatchesPerWordReference runs skewed feeds through
// ConsumeRuns and, expanded, through the per-word reference, and requires
// equal Stats after every call and equal device state at the end.
// On DDR3 most words must have been replayed by the shift proof.
func TestShiftReplayMatchesPerWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3203))
	cfgs := []Config{DDR3(), hbm2}
	geometries := 300
	if testing.Short() {
		geometries = 40
	}
	for i := 0; i < geometries; i++ {
		cfgs = append(cfgs, randomGeometry(rng))
	}
	var addrs []int64
	for ci, cfg := range cfgs {
		got, err := New(cfg)
		if err != nil {
			t.Fatalf("config %d %+v: %v", ci, cfg, err)
		}
		want, _ := New(cfg)
		for k, c := range skewedFeed(rng, 3000) {
			got.ConsumeRuns(c.cycle, c.runs)
			addrs = trace.ExpandRuns(c.runs, addrs[:0])
			refConsume(want, c.cycle, addrs)
			if got.Stats() != want.Stats() {
				t.Fatalf("config %d %+v, call %d at cycle %d %+v:\nmodel     %+v\nreference %+v",
					ci, cfg, k, c.cycle, c.runs, got.Stats(), want.Stats())
			}
		}
		if !sameDevice(got, want) {
			t.Errorf("config %d %+v: final device state differs from the reference", ci, cfg)
		}
		if ci == 0 {
			calls, words, _, _, _ := got.Replayed()
			if share := float64(words) / float64(got.Stats().Requests); share < 0.5 {
				t.Errorf("DDR3: shift proof replayed %d calls, %d of %d words (%.2f), want at least half",
					calls, words, got.Stats().Requests, share)
			}
		}
	}
}

// chain is n successor calls: run r at cycle c0, then every cycle with each
// base one word higher.
func chain(c0 int64, n int, runs ...trace.Run) []feedCall {
	feed := make([]feedCall, n)
	for i := range feed {
		shifted := make([]trace.Run, len(runs))
		for j, r := range runs {
			r.Base += int64(i)
			shifted[j] = r
		}
		feed[i] = feedCall{c0 + int64(i), shifted}
	}
	return feed
}

// startState is a bus and bank state to start a model from.
type startState struct {
	bus   int64
	banks []bank
}

// replayFlags feeds the calls through a model and the per-word reference,
// both set to the given start state (nil: a fresh model), requiring equal
// Stats after every call, and reports which calls the shift proof replayed.
func replayFlags(t *testing.T, cfg Config, start *startState, feed []feedCall) []bool {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := New(cfg)
	if start != nil {
		for _, m := range []*Model{got, want} {
			m.bus = start.bus
			copy(m.banks, start.banks)
		}
	}
	flags := make([]bool, len(feed))
	for k, c := range feed {
		before, _, _, _, _ := got.Replayed()
		got.ConsumeRuns(c.cycle, c.runs)
		refConsume(want, c.cycle, trace.ExpandRuns(c.runs, nil))
		if got.Stats() != want.Stats() {
			t.Fatalf("call %d %+v:\nmodel     %+v\nreference %+v", k, c, got.Stats(), want.Stats())
		}
		after, _, _, _, _ := got.Replayed()
		flags[k] = after > before
	}
	if !sameDevice(got, want) {
		t.Error("final device state differs from the reference")
	}
	return flags
}

// TestShiftReplayConditions: each condition of the shift proof, alone,
// stops an armed replay or keeps it from arming, and the per-word reference
// agrees throughout.
func TestShiftReplayConditions(t *testing.T) {
	ddr := DDR3()
	// Eight words at stride 767 over three rows of three banks; the first
	// call misses, every later one hits. Based at 0 the run has 260 words of
	// headroom, at 255 only 5.
	skew := func(base int64) trace.Run { return trace.Run{Base: base, Stride: 767, Count: 8} }
	armed := chain(0, 10, skew(0))
	// A 2048-word burst backs the bus up on bank 0; then each call misses
	// twice on bank 1 (rows 1 and 9), which grows its cmdFree faster than
	// the bus until its transfers stop waiting: a finite horizon.
	burst := feedCall{0, []trace.Run{{Base: 0, Stride: 1, Count: 2048}}}
	pair := trace.Run{Base: 2048, Stride: 8 * 2048, Count: 2}

	F, T := false, true
	cases := []struct {
		name string
		cfg  Config
		feed []feedCall
		want []bool
	}{
		{"successor chain replays", ddr, armed, []bool{F, F, F, T, T, T, T, T, T, T}},
		{"a non-successor stops it", ddr,
			append(chain(0, 6, skew(0)), feedCall{6, []trace.Run{{Base: 6, Stride: 766, Count: 8}}}),
			[]bool{F, F, F, T, T, T, F}},
		{"a base moved down stops it", ddr,
			append(chain(0, 6, skew(10)), feedCall{6, []trace.Run{skew(11)}}),
			[]bool{F, F, F, T, T, T, F}},
		{"a row crossing stops it", ddr, chain(0, 8, skew(255)), []bool{F, F, F, T, T, T, F, F}},
		// Stride 2048 puts every word in its own row, at the same offset.
		{"the same chain within the block replays", ddr,
			chain(0, 8, trace.Run{Base: 0, Stride: 2048, Count: 8}), []bool{F, F, F, T, T, T, T, T}},
		{"a binding floor stops it", ddr,
			append(chain(0, 6, skew(0)), feedCall{200_000, []trace.Run{skew(6)}}),
			[]bool{F, F, F, T, T, T, F}},
		// The first pair call finds bank 1 precharged, the second with row 9
		// open: the same hits, different open rows, so no proof from them.
		{"different open rows keep it from arming", ddr,
			append([]feedCall{burst}, chain(0, 5, pair)...), []bool{F, F, F, F, T, T}},
		{"two runs on one bus arm it", ddr,
			chain(0, 8, trace.Run{Base: 0, Stride: 1, Count: 2}, trace.Run{Base: 1024, Stride: 1, Count: 2}),
			[]bool{F, F, F, T, T, T, T, T}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := replayFlags(t, tc.cfg, nil, tc.feed); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("replayed %v, want %v", got, tc.want)
			}
		})
	}

	t.Run("an expired slack horizon stops it", func(t *testing.T) {
		m, _ := New(ddr)
		feed := append([]feedCall{burst}, chain(0, 3, pair)...)
		for _, c := range feed {
			m.ConsumeRuns(c.cycle, c.runs)
		}
		left := m.proof.left
		if left <= 0 || left > 100 {
			t.Fatalf("proof covers %d calls, want a horizon in (0, 100]", left)
		}
		feed = append(feed, chain(3, int(left)+2, trace.Run{Base: pair.Base + 3, Stride: pair.Stride, Count: 2})...)
		flags := replayFlags(t, ddr, nil, feed)
		for k, f := range flags[4:] {
			if want := k < int(left); f != want {
				t.Errorf("successor %d of %d past the proof: replayed %v, want %v", k+1, left+2, f, want)
			}
		}
	})
}

// TestShiftReplayFromRandomState starts the model and the reference from the
// same random bank and bus state and repeats one call, its bases moving up
// by zero or one word, at cycles moving up by zero or one: the transients
// after an arbitrary backlog are where a proof premise can fail alone.
func TestShiftReplayFromRandomState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 30_000
	if testing.Short() {
		trials = 5_000
	}
	for g := 0; g < trials; g++ {
		cfg := Config{
			Banks: 1 + rng.Intn(3), RowWords: int64(4 + rng.Intn(12)),
			TRCD: rng.Int63n(6), TCAS: rng.Int63n(6), TRP: rng.Int63n(6), BusCyclesPerWord: 1 + rng.Int63n(2),
		}
		start := &startState{bus: rng.Int63n(60), banks: make([]bank, cfg.Banks)}
		for bi := range start.banks {
			start.banks[bi] = bank{cmdFree: rng.Int63n(60), openRow: rng.Int63n(4) - 1}
			if start.banks[bi].openRow < 0 {
				start.banks[bi].openRow = precharged
			}
		}
		runs := make([]trace.Run, 1+rng.Intn(2))
		for j := range runs {
			runs[j] = trace.Run{Base: rng.Int63n(40), Stride: rng.Int63n(12), Count: 1 + rng.Int63n(5)}
		}
		feed := make([]feedCall, 12)
		var cycle int64
		for k := range feed {
			feed[k] = feedCall{cycle, append([]trace.Run(nil), runs...)}
			cycle += rng.Int63n(2)
			for j := range runs {
				runs[j].Base += rng.Int63n(2)
			}
		}
		replayFlags(t, cfg, start, feed)
	}
}

// TestShiftReplayBusStartBound: two successor calls whose completions moved
// by n·delta in sum, but whose bus start moved by more than delta, prove
// nothing — some completion moved more than delta and another less. Found by
// TestShiftReplayFromRandomState with the bus-start bound removed.
func TestShiftReplayBusStartBound(t *testing.T) {
	cfg := Config{Banks: 3, RowWords: 9, TRCD: 4, TCAS: 1, TRP: 3, BusCyclesPerWord: 1}
	start := &startState{bus: 18, banks: []bank{{-1, 51}, {2, 34}, {0, 40}}}
	var feed []feedCall
	for _, c := range []struct{ cycle, a, b int64 }{
		{0, 29, 34}, {1, 29, 35}, {1, 30, 36}, {2, 30, 36}, {3, 31, 37}, {3, 31, 38}, {3, 32, 39}, {3, 32, 40}, {4, 32, 41},
	} {
		feed = append(feed, feedCall{c.cycle, []trace.Run{{Base: c.a, Stride: 9, Count: 5}, {Base: c.b, Stride: 3, Count: 3}}})
	}
	replayFlags(t, cfg, start, feed)
}

// perWordRuns is ConsumeRuns with every word served by its own one-word
// serve, so no row step is ever taken: the twin the row step is held to.
// Its body is ConsumeRuns' but for the inner loop.
func perWordRuns(m *Model, cycle int64, runs []trace.Run) {
	if m.proof.left > 0 && m.replay(cycle, runs, 0, 1) == 1 {
		return
	}
	m.proof.left = 0
	m.prev, m.cur = m.cur, m.prev
	m.prev.ok = m.prev.ok && m.adjacent
	before := m.stats
	m.begin(cycle, runs)
	for _, r := range runs {
		for i := int64(0); i < r.Count; i++ {
			m.serve(cycle, r.Base+i*r.Stride, 0, 1)
		}
	}
	m.record(before)
	m.adjacent = true
	m.arm()
}

// sameSlack reports whether two models hold the same per-bank slack, live
// and in both call records, and so arm and replay the shift proof alike.
func sameSlack(a, b *Model) bool {
	return reflect.DeepEqual(a.slack, b.slack) &&
		reflect.DeepEqual(a.recs[0].slack, b.recs[0].slack) && reflect.DeepEqual(a.recs[1].slack, b.recs[1].slack) &&
		a.proof.left == b.proof.left
}

// stepMatches feeds the calls through ConsumeRuns and through perWordRuns and
// requires, after every call, equal Stats, device state and slack, and
// returns the words the row step took.
func stepMatches(t *testing.T, cfg Config, feed []feedCall) int64 {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	twin, _ := New(cfg)
	for k, c := range feed {
		got.ConsumeRuns(c.cycle, c.runs)
		perWordRuns(twin, c.cycle, c.runs)
		if got.Stats() != twin.Stats() || !sameDevice(got, twin) || !sameSlack(got, twin) {
			t.Fatalf("%+v, call %d at cycle %d %+v:\nstepped  %+v slack %v\nper word %+v slack %v",
				cfg, k, c.cycle, c.runs, got.Stats(), got.slack, twin.Stats(), twin.slack)
		}
	}
	_, words, _, stepped, walked := got.Replayed()
	if words+stepped+walked != got.Stats().Requests {
		t.Errorf("%+v: replayed %d + stepped %d + walked %d != served %d", cfg, words, stepped, walked, got.Stats().Requests)
	}
	if _, _, _, s, _ := twin.Replayed(); s != 0 {
		t.Errorf("%+v: the per-word twin stepped %d words", cfg, s)
	}
	return stepped
}

// stepRun draws a run for the row step on a geometry with rows of g words:
// strides 0, 1, g-1, below g, g and beyond, and negative; a third of the
// runs within a row end exactly on its last word.
func stepRun(rng *rand.Rand, g, span int64) trace.Run {
	r := trace.Run{Count: 1 + rng.Int63n(3*g+2)}
	switch rng.Intn(7) {
	case 0:
		r.Stride = 0
	case 1:
		r.Stride = 1
	case 2:
		r.Stride = g - 1
	case 3:
		r.Stride = rng.Int63n(g)
	case 4:
		r.Stride = g + rng.Int63n(2*g)
	case 5:
		r.Stride = -1 - rng.Int63n(2*g)
	default:
		r.Stride = 1 + rng.Int63n(4)
	}
	r.Base = rng.Int63n(span)
	if r.Stride >= 0 && r.Stride < g && rng.Intn(3) == 0 {
		// The last word is the last of its row.
		last := (rng.Int63n(span)/g+1)*g - 1
		if base := last - (r.Count-1)*r.Stride; base >= 0 {
			r.Base = base
		}
	}
	if r.Stride < 0 {
		r.Base -= (r.Count - 1) * r.Stride
	}
	return r
}

// TestRowStepMatchesPerWordServe: serve's row step leaves every bank's
// slack, and with it the calls the shift proof arms and replays on, the
// Stats and the device state exactly as serving each word alone does —
// which refRequest cannot see, since it keeps no slack. The cases pin the
// corners of the step; the random feeds mix them on small geometries with
// bus slots of one to three cycles, zero CAS latency, one-word rows,
// frequent refresh, few rows (stretches start in open rows) and many
// (stretches start in closed ones), and chains of shifted calls that arm
// the proof.
func TestRowStepMatchesPerWordServe(t *testing.T) {
	base := Config{Banks: 2, RowWords: 16, TRCD: 3, TCAS: 2, TRP: 4}
	one := func(cycle int64, r trace.Run) feedCall { return feedCall{cycle, []trace.Run{r}} }
	cases := []struct {
		name string
		cfg  func(Config) Config
		feed []feedCall
	}{
		{"stride 0", nil, []feedCall{one(0, trace.Run{Base: 5, Stride: 0, Count: 40})}},
		{"stride RowWords-1", nil, []feedCall{one(0, trace.Run{Base: 3, Stride: 15, Count: 40})}},
		{"one-word rows", func(c Config) Config { c.RowWords = 1; return c },
			[]feedCall{one(0, trace.Run{Base: 7, Stride: 0, Count: 9}), one(1, trace.Run{Base: 2, Stride: 1, Count: 9})}},
		{"a run ending on a row end", nil,
			[]feedCall{one(0, trace.Run{Base: 4, Stride: 1, Count: 12}), one(0, trace.Run{Base: 17, Stride: 7, Count: 3})}},
		{"a stretch starting in an open row", nil,
			[]feedCall{one(0, trace.Run{Base: 0, Stride: 1, Count: 3}), one(1, trace.Run{Base: 3, Stride: 2, Count: 6})}},
		{"a stretch starting in a closed row", nil,
			[]feedCall{one(0, trace.Run{Base: 0, Stride: 1, Count: 3}), one(1, trace.Run{Base: 16, Stride: 3, Count: 6})}},
		{"a refresh hold above cmdFree", func(c Config) Config { c.TREFI, c.TRFC = 100, 60; return c },
			[]feedCall{one(0, trace.Run{Base: 0, Stride: 1, Count: 4}), one(100, trace.Run{Base: 4, Stride: 1, Count: 30})}},
		{"a shifted chain arms the proof", nil, chain(0, 12, trace.Run{Base: 0, Stride: 5, Count: 6})},
	}
	for _, tc := range cases {
		for w := int64(1); w <= 3; w++ {
			for _, tCAS := range []int64{0, 2} {
				cfg := base
				if tc.cfg != nil {
					cfg = tc.cfg(cfg)
				}
				cfg.BusCyclesPerWord, cfg.TCAS = w, tCAS
				if stepMatches(t, cfg, tc.feed) == 0 {
					t.Errorf("%s on %+v: no word was stepped", tc.name, cfg)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(4103))
	trials := 400
	if testing.Short() {
		trials = 80
	}
	var stepped int64
	for g := 0; g < trials; g++ {
		cfg := Config{
			Banks: 1 + rng.Intn(4), RowWords: 1 + rng.Int63n(24),
			TRCD: rng.Int63n(8), TCAS: rng.Int63n(8), TRP: rng.Int63n(8), BusCyclesPerWord: 1 + rng.Int63n(3),
		}
		if rng.Intn(3) == 0 {
			cfg.TCAS = 0
		}
		if rng.Intn(2) == 0 {
			cfg.TREFI = 20 + rng.Int63n(300)
			cfg.TRFC = rng.Int63n(cfg.TREFI)
		}
		// A span of a few rows per bank keeps rows open between calls; a
		// wide one makes most stretches start after an activate.
		span := cfg.RowWords * int64(cfg.Banks) * [...]int64{2, 64}[rng.Intn(2)]
		var feed []feedCall
		var cycle int64
		for len(feed) < 60 {
			runs := make([]trace.Run, 1+rng.Intn(3))
			for i := range runs {
				runs[i] = stepRun(rng, cfg.RowWords, span)
			}
			if rng.Intn(3) == 0 {
				feed = append(feed, chain(cycle, 2+rng.Intn(8), runs...)...)
			} else {
				feed = append(feed, feedCall{cycle, runs})
			}
			cycle = feed[len(feed)-1].cycle + rng.Int63n(3)
			if rng.Intn(10) == 0 {
				cycle += rng.Int63n(500)
			}
		}
		stepped += stepMatches(t, cfg, feed)
	}
	if stepped == 0 {
		t.Error("the random feeds stepped no word")
	}
}
