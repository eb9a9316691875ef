package dram_test

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// fuzzDRAM are the DRAM sides a fuzzed layer draws from: none, DDR3 with
// and without refresh, and a geometry whose short rows every skew stride
// breaks and whose refresh falls every few hundred cycles, with a bus slot
// of one cycle and of two (so serve's row step moves the bus by more than
// one cycle a word).
var fuzzDRAM = []*dram.Config{
	nil,
	func() *dram.Config { c := dram.DDR3(); return &c }(),
	func() *dram.Config { c := dram.DDR3(); c.TREFI, c.TRFC = 0, 0; return &c }(),
	{Banks: 3, RowWords: 37, TRCD: 5, TCAS: 4, TRP: 6, TREFI: 400, TRFC: 30, BusCyclesPerWord: 1},
	{Banks: 3, RowWords: 37, TRCD: 5, TCAS: 4, TRP: 6, TREFI: 400, TRFC: 30, BusCyclesPerWord: 2},
}

// fuzzBandwidths are the link bandwidths a fuzzed layer draws from: none,
// whole words (a call of that many words keeps the lag level), and
// fractions.
var fuzzBandwidths = []float64{0, 1, 2, 3, 4, 8, 16, 0.7, 1.0 / 3, 2.5}

// FuzzLayer is the layer's oracle: a drawn layer shape, dataflow, array,
// SRAM sizes (WordBytes shrinks a KiB to a handful of words, so a buffer
// can sit around one operand block), DRAM side and link bandwidth — or a
// partition grid, whose windows' tiles and blocks start at an offset — run
// once as the product runs it — blocks proven and skipped or replayed,
// output tiles proven fresh, sweeps taken whole by the SRAM buffers, the
// DRAM model and the stall analyzer —
// and once as a reference that hangs a live no-op sink on every SRAM and
// DRAM stream (a timeline's samplers, for a grid), so no block or sweep
// reaches any consumer and every call is made, and that feeds the DRAM
// streams to the per-word model (RefConsume) as well. The results — cycles,
// memory report, DRAM statistics, stall cycles and cycle ledgers — must be
// DeepEqual, and the per-word model must reproduce the DRAM statistics.
// Then the layer runs under several simulators in one plan (crossRuns).
func FuzzLayer(f *testing.F) {
	// Seeds: OS/WS/IS GEMMs and convolutions, buffers of a few words to a
	// few KiB, every DRAM side (the two-cycle bus slot under OS and WS),
	// words-per-call level with the link, whole layers and windows.
	f.Add(uint8(15), uint8(0), uint8(0), uint8(0), uint8(11), uint8(39), uint8(0), uint8(0), uint8(7), uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(4), uint8(0), uint8(0))
	f.Add(uint8(11), uint8(11), uint8(2), uint8(2), uint8(3), uint8(15), uint8(1), uint8(1), uint8(3), uint8(5), uint8(1), uint8(1), uint8(0), uint8(5), uint8(3), uint8(1), uint8(3), uint8(2))
	f.Add(uint8(19), uint8(13), uint8(4), uint8(1), uint8(5), uint8(7), uint8(0), uint8(2), uint8(7), uint8(3), uint8(0), uint8(1), uint8(1), uint8(6), uint8(1), uint8(7), uint8(0), uint8(0))
	f.Add(uint8(7), uint8(7), uint8(2), uint8(2), uint8(7), uint8(31), uint8(0), uint8(0), uint8(3), uint8(3), uint8(0), uint8(0), uint8(0), uint8(4), uint8(2), uint8(3), uint8(9), uint8(17))
	f.Add(uint8(23), uint8(0), uint8(0), uint8(0), uint8(2), uint8(9), uint8(0), uint8(1), uint8(15), uint8(1), uint8(2), uint8(3), uint8(1), uint8(7), uint8(3), uint8(8), uint8(5), uint8(40))
	f.Add(uint8(17), uint8(9), uint8(2), uint8(1), uint8(6), uint8(21), uint8(0), uint8(0), uint8(5), uint8(6), uint8(0), uint8(1), uint8(0), uint8(3), uint8(4), uint8(4), uint8(0), uint8(0))
	f.Add(uint8(13), uint8(0), uint8(0), uint8(0), uint8(9), uint8(33), uint8(0), uint8(1), uint8(6), uint8(4), uint8(1), uint8(0), uint8(2), uint8(5), uint8(4), uint8(7), uint8(2), uint8(8))
	s := fittingSeed
	f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15], s[16], s[17])
	f.Fuzz(func(t *testing.T, ih, iw, fh, fw, ch, nf, st, df, rows, cols, ifKB, flKB, ofKB, wordLog, dm, bw, wr, wc uint8) {
		l, cfg := drawLayer(ih, iw, fh, fw, ch, nf, st, df, rows, cols, ifKB, flKB, ofKB, wordLog)
		opt := core.Options{Workers: 1, DRAM: fuzzDRAM[int(dm)%len(fuzzDRAM)], DRAMBandwidth: fuzzBandwidths[int(bw)%len(fuzzBandwidths)]}
		topo := topology.Topology{Name: "fuzz", Layers: []topology.Layer{l}}
		if topo.Validate() != nil || cfg.Validate() != nil {
			return
		}

		// A partition grid (wr = wc = 0: one array) of up to 4x4 arrays, so
		// a partition's tiles and blocks start at an offset. A grid takes no
		// DRAM side or link bound (a memory shared by the partitions is not
		// modelled), and no caller sinks: its reference hangs a timeline
		// instead, whose samplers are live consumers on every stream.
		var parts analytical.Partitioning
		if wr != 0 || wc != 0 {
			parts = analytical.Partitioning{Pr: 1 + int64(wr%4), Pc: 1 + int64(wc%4)}
			opt.DRAM, opt.DRAMBandwidth, opt.Parts = nil, 0, parts
		}
		run := func(opt core.Options) ([]core.LayerResult, *obsv.Recorder) {
			opt.Obs = obsv.NewRecorder()
			sim, err := core.New(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Simulate(topo)
			if err != nil {
				t.Fatalf("%+v on %+v, grid %s: %v", l, cfg, parts, err)
			}
			return res.Layers, opt.Obs
		}
		product, _ := run(opt)

		var mu sync.Mutex
		var perWord []*dram.Model
		if opt.Parts != (analytical.Partitioning{}) {
			opt.Timeline = timeline.New(io.Discard, timeline.Options{})
		} else {
			opt.Sinks = engine.Registry{func(_ engine.Job, set *engine.SinkSet) error {
				for _, st := range engine.Streams {
					set.Attach(st, trace.ConsumerFunc(func(int64, []int64) {}))
				}
				if opt.DRAM != nil {
					ref, err := dram.New(*opt.DRAM)
					if err != nil {
						return err
					}
					sink := trace.ConsumerFunc(func(cycle int64, addrs []int64) { dram.RefConsume(ref, cycle, addrs) })
					set.Attach(engine.DRAMRead, sink)
					set.Attach(engine.DRAMWrite, sink)
					mu.Lock()
					perWord = append(perWord, ref)
					mu.Unlock()
				}
				return nil
			}}
		}
		reference, rec := run(opt)
		for _, name := range []string{"memory.words_skipped", "memory.words_thrashed", "memory.words_first_touch",
			"memory.words_fresh_write", "memory.sweeps", "dram.sweeps"} {
			if n := rec.Metrics().Counter(name).Value(); n != 0 {
				t.Fatalf("reference run: %s = %d, want every call made", name, n)
			}
		}

		if !reflect.DeepEqual(product, reference) {
			for i := range product {
				p, r := product[i], reference[i]
				t.Errorf("%+v on %+v, grid %s, DRAM %+v, link %v:\nproduct   %+v\n          DRAM %+v ledger %+v\nreference %+v\n          DRAM %+v ledger %+v",
					l, cfg, parts, opt.DRAM, opt.DRAMBandwidth, p, p.DRAMStats, p.Ledger, r, r.DRAMStats, r.Ledger)
			}
			t.FailNow()
		}
		if opt.DRAM != nil {
			if len(perWord) != 1 {
				t.Fatalf("%d per-word models, want one", len(perWord))
			}
			if got, want := *product[0].DRAMStats, perWord[0].Stats(); got != want {
				t.Errorf("%+v on %+v, DRAM %+v: model %+v, per-word reference %+v", l, cfg, opt.DRAM, got, want)
			}
		}
		crossRuns(t, topo, cfg, fuzzDRAM[int(dm)%len(fuzzDRAM)], fuzzBandwidths[int(bw)%len(fuzzBandwidths)], parts)
	})
}

// fittingSeed is a FuzzLayer seed whose IFMAP and filter regions fit their
// buffers (an 8x8x4 IFMAP and eight 3x3x4 filters on a 4x4 array, one-byte
// words, 1 KiB SRAMs) under OS, with DDR3 and a 4 words/cycle link: a
// fitting region's first touches are inserted at once rather than queued.
var fittingSeed = [18]uint8{7, 7, 2, 2, 3, 7, 0, 0, 3, 3, 0, 0, 0, 0, 1, 4, 0, 0}

// drawLayer is the layer and configuration FuzzLayer draws from its bytes.
func drawLayer(ih, iw, fh, fw, ch, nf, st, df, rows, cols, ifKB, flKB, ofKB, wordLog uint8) (topology.Layer, config.Config) {
	l := topology.Layer{Name: "fuzz", IfmapH: 1 + int(ih%24), IfmapW: 1 + int(iw%24),
		Channels: 1 + int(ch%12), NumFilters: 1 + int(nf%40), Stride: 1 + int(st%3)}
	l.FilterH = 1 + int(fh)%min(l.IfmapH, 5)
	l.FilterW = 1 + int(fw)%min(l.IfmapW, 5)
	cfg := config.New().WithArray(1+int(rows%16), 1+int(cols%16)).
		WithDataflow(config.Dataflows[int(df)%len(config.Dataflows)]).
		WithSRAM(1+int(ifKB%4), 1+int(flKB%4), 1+int(ofKB%4))
	cfg.WordBytes = 1 << (wordLog % 8)
	return l, cfg
}

// TestFittingSeedTakesFirstTouch: on fittingSeed's layer every read region
// fits its buffer, and the first-touch proof still fires, so FuzzLayer's
// seed corpus holds a fitting region's inserted first touches to the
// reference.
func TestFittingSeedTakesFirstTouch(t *testing.T) {
	s := fittingSeed
	l, cfg := drawLayer(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13])
	// Double buffering: half of each SRAM is resident.
	if l.IfmapWords() > cfg.IfmapSRAMWords()/2 || l.FilterWords() > cfg.FilterSRAMWords()/2 {
		t.Fatalf("IFMAP %d and filter %d words, buffers %d and %d: a read region does not fit",
			l.IfmapWords(), l.FilterWords(), cfg.IfmapSRAMWords()/2, cfg.FilterSRAMWords()/2)
	}
	rec := obsv.NewRecorder()
	sim, err := core.New(cfg, core.Options{Workers: 1, DRAM: fuzzDRAM[int(s[14])%len(fuzzDRAM)],
		DRAMBandwidth: fuzzBandwidths[int(s[15])%len(fuzzBandwidths)], Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Simulate(topology.Topology{Name: "fuzz", Layers: []topology.Layer{l}}); err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics()
	if n := m.Counter("memory.words_first_touch").Value(); n == 0 {
		t.Error("memory.words_first_touch = 0: no first touch fired in the fitting regions")
	}
	if n := m.Counter("memory.region_fallbacks").Value(); n != 0 {
		t.Errorf("%d region fallbacks", n)
	}
}

// crossRuns is FuzzLayer's cross-run case: the drawn layer under four
// simulators in one plan (core.SimulateRuns) — two with equal
// configurations, so the second replays the first across runs; one on a
// partition grid (the drawn one, or 2x1); and one on another array under
// the first two's DRAM side and link bound, which a plan keyed without the
// configuration would replay the first into — must give each run exactly
// what the same simulator's solo Simulate gives, at one worker and at four.
func crossRuns(t *testing.T, topo topology.Topology, cfg config.Config, side *dram.Config, bw float64, grid analytical.Partitioning) {
	if bw == 0 {
		bw = 2
	}
	if grid == (analytical.Partitioning{}) {
		grid = analytical.Partitioning{Pr: 2, Pc: 1}
	}
	other := cfg.WithArray(cfg.ArrayHeight%16+1, cfg.ArrayWidth)
	linked := core.Options{DRAM: side, DRAMBandwidth: bw}
	systems := []struct {
		cfg config.Config
		opt core.Options
	}{{cfg, linked}, {cfg, linked}, {other, core.Options{Parts: grid}}, {other, linked}}
	want := make([]core.RunResult, len(systems))
	for i, sys := range systems {
		sys.opt.Workers = 1
		sim, err := core.New(sys.cfg, sys.opt)
		if err == nil {
			want[i], err = sim.Simulate(topo)
		}
		if err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
	}
	for _, workers := range []int{1, 4} {
		rec := obsv.NewRecorder()
		runs := make([]core.Run, len(systems))
		for i, sys := range systems {
			sys.opt.Workers, sys.opt.Obs = workers, rec
			sim, err := core.New(sys.cfg, sys.opt)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = core.Run{Sim: sim, Name: fmt.Sprintf("run %d", i), Workload: topo.Graph()}
		}
		got, err := core.SimulateRuns(runs)
		if err != nil {
			t.Fatalf("%+v on %+v, workers %d: %v", topo.Layers[0], cfg, workers, err)
		}
		if n := rec.Metrics().Counter("core.nodes_replayed").Value(); n < 1 {
			t.Errorf("workers %d: %d contexts replayed, want the equal run's", workers, n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%+v on %+v, DRAM %+v, link %v, grid %s, workers %d: run %d in the plan\n%+v\nsolo\n%+v",
					topo.Layers[0], systems[i].cfg, side, bw, grid, workers, i, got[i], want[i])
			}
		}
	}
}
