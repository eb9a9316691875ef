// Package dram is a behavioural DRAM timing model that consumes the
// simulator's DRAM-interface traces. The paper feeds SCALE-Sim's interface
// traces to an external simulator (DRAMSim2); this package is the in-repo
// substitute: a DDR3-class single-channel device, open-page banks with
// activate/CAS/precharge timings, periodic refresh and one shared data bus,
// serving requests in call order, enough to answer whether a trace's demand
// bandwidth is achievable and at what latency.
//
// Call order is not cycle order. The DRAM read stream carries one operand's
// block and then the next one's, so a call can arrive at an earlier cycle
// than the call before it: on BERTBase 48 calls over the 47 nodes do, by up
// to 3,102 cycles. Such a call is served after the one before it, and
// refresh catch-up is monotone, so it also sees the refresh hold the later
// call caught up to.
//
// A backlogged device fed a skewed stream sees the same call over and over,
// shifted: each cycle's runs are the previous cycle's with every base one
// word higher. ConsumeRuns proves that from two fully served calls and then
// replays the following ones by arithmetic (see shift), touching only the
// banks the call uses, with results identical to serving every word; a
// producer that declares the repetition as a sweep has ConsumeSweep replay
// a whole stretch of it in one step. A call served in full goes through
// serve a row at a time: the words of a run that stay in one row are hits
// in one bank, taken in one step.
package dram

import (
	"fmt"
	"math"

	"scalesim/internal/trace"
)

// Config holds the timing and geometry parameters, all in accelerator
// clock cycles and words.
type Config struct {
	// Banks is the number of banks.
	Banks int
	// RowWords is the page size: words per DRAM row.
	RowWords int64
	// TRCD is the activate-to-CAS delay.
	TRCD int64
	// TCAS is the CAS-to-data delay.
	TCAS int64
	// TRP is the precharge delay.
	TRP int64
	// TREFI is the refresh interval; TRFC the refresh duration. Zero TREFI
	// disables refresh.
	TREFI, TRFC int64
	// BusCyclesPerWord is the data-bus occupancy per word transferred.
	BusCyclesPerWord int64
}

// DDR3 returns timings loosely modeled on DDR3-1600 expressed in a 1 GHz
// accelerator clock: 8 banks, 2 KiB pages, tRCD = tCAS = tRP = 11, refresh
// every 7800 cycles for 139, and a bus that moves one word per cycle.
func DDR3() Config {
	return Config{
		Banks: 8, RowWords: 2048,
		TRCD: 11, TCAS: 11, TRP: 11,
		TREFI: 7800, TRFC: 139,
		BusCyclesPerWord: 1,
	}
}

// Key is the configuration's identity in result-cache keys: the %+v form
// every stored key was written with, down to the zero interleave geometry
// and the Policy:0 scheduler of fields Config no longer has, so existing
// cache directories stay warm.
func (c Config) Key() string {
	return fmt.Sprintf("{Channels:0 InterleaveWords:0 Banks:%d RowWords:%d TRCD:%d TCAS:%d TRP:%d TREFI:%d TRFC:%d BusCyclesPerWord:%d Policy:0}",
		c.Banks, c.RowWords, c.TRCD, c.TCAS, c.TRP, c.TREFI, c.TRFC, c.BusCyclesPerWord)
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Banks < 1:
		return fmt.Errorf("dram: Banks must be >= 1, got %d", c.Banks)
	case c.RowWords < 1:
		return fmt.Errorf("dram: RowWords must be >= 1, got %d", c.RowWords)
	case c.TRCD < 0 || c.TCAS < 0 || c.TRP < 0 || c.TREFI < 0 || c.TRFC < 0:
		return fmt.Errorf("dram: negative timing parameter")
	case c.TREFI > 0 && c.TRFC >= c.TREFI:
		return fmt.Errorf("dram: TRFC %d must be below TREFI %d", c.TRFC, c.TREFI)
	case c.BusCyclesPerWord < 1:
		return fmt.Errorf("dram: BusCyclesPerWord must be >= 1, got %d", c.BusCyclesPerWord)
	}
	return nil
}

// bank is one bank's state.
type bank struct {
	openRow int64 // -1 when precharged
	cmdFree int64 // cycle at which the bank can accept a new command
}

// Model simulates a DRAM device.
type Model struct {
	cfg         Config
	banks       []bank
	bus         int64 // cycle at which the data bus frees
	nextRefresh int64
	refreshHold int64 // device blocked until this cycle by refresh
	stats       Stats

	// slack holds, per bank, the smallest bus - ready over the bank's words
	// since ConsumeRuns last reset it: how long its transfers waited for the
	// bus.
	slack []int64
	// prev and cur are the last two fully served calls, held in recs;
	// adjacent reports that nothing was replayed since cur, so prev and cur
	// are consecutive.
	recs      [2]call
	prev, cur *call
	adjacent  bool
	proof     shift
	// replayedCalls and replayedWords count what the proof served,
	// replayedSweeps the stretches of a sweep it served in one step.
	replayedCalls, replayedWords, replayedSweeps int64
	// stepped and walked count the words serve took by a row step and one
	// at a time.
	stepped, walked int64
	// sweepRuns is ConsumeSweep's shifted copy of a sweep's runs.
	sweepRuns []trace.Run
}

// maxRecordRuns bounds the runs a recorded call may carry, so a record's
// storage is sized once per Model. A skewed fold sends one or two runs per
// cycle; a call with many runs is a whole SRAM block replayed at once, and
// it is served without a record.
const maxRecordRuns = 64

// call is what a fully served ConsumeRuns call leaves for the shift proof.
// Per-bank slices are sized once per Model.
type call struct {
	// ok marks a record the proof may use: every address non-negative, at
	// least one word, and a free floor — max(arrival, refreshHold) at or
	// below every touched bank's cmdFree at call start, so no word's start
	// depended on anything but its bank.
	ok      bool
	arrival int64
	runs    []trace.Run
	// head holds, per run, how far its base may move up with every word
	// keeping its row; filled when the record takes part in a proof.
	head    []int64
	n, hits int64
	// sumDone is the sum of the words' completion cycles.
	sumDone int64
	// start and bus are the banks' and the bus's state at call start, slack
	// each bank's at call end. busEnd is the bus at call end, the last
	// word's completion.
	start       []bank
	slack       []int64
	bus, busEnd int64
	// banks lists the indices of the banks the call touched.
	banks []int
}

// shift is an armed proof: every call that is a successor of cur (its runs
// cur's with each base moved up within that run's headroom) and finds a free
// floor completes every word exactly delta cycles after the call before it.
type shift struct {
	// left is how many more calls the proof covers; zero means disarmed.
	left  int64
	delta int64
	// dBank is each of cur.banks' cmdFree growth per call.
	dBank []int64
	// sumDone is that of the latest call, served or replayed; its last
	// completion is the bus.
	sumDone int64
}

// Stats aggregates the model's behaviour.
type Stats struct {
	// Requests counts words serviced.
	Requests int64
	// RowHits and RowMisses count page-policy outcomes.
	RowHits, RowMisses int64
	// Refreshes counts refresh windows applied.
	Refreshes int64
	// TotalLatency sums per-word latency (completion - arrival).
	TotalLatency int64
	// MaxLatency is the worst per-word latency.
	MaxLatency int64
	// LastCompletion is the cycle the final word finished.
	LastCompletion int64
	// BusBusy counts data-bus cycles consumed.
	BusBusy int64
}

// RowHitRate returns the fraction of requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Requests)
}

// New builds a Model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, banks: make([]bank, cfg.Banks), slack: make([]int64, cfg.Banks)}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	if cfg.TREFI > 0 {
		m.nextRefresh = cfg.TREFI
	}
	m.prev, m.cur = &m.recs[0], &m.recs[1]
	for _, c := range []*call{m.prev, m.cur} {
		c.runs = make([]trace.Run, 0, maxRecordRuns)
		c.head = make([]int64, 0, maxRecordRuns)
		c.start = make([]bank, cfg.Banks)
		c.slack = make([]int64, cfg.Banks)
	}
	return m, nil
}

// serve services the n words addr, addr+stride, ... that all arrive at the
// given cycle, in order, and returns the last word's completion cycle. It is
// the model's only state machine. Calls are served in call order, whatever
// their cycles (see the package doc).
//
// Only the first word is decoded by division. stride is split once into
// whole rows and a remainder in [0, RowWords); the loop moves to the next
// word by adding the remainder to the row offset and carrying into the row
// and the bank, which lands on exactly the (row, bank) a division of the
// address would — for non-negative addresses, where truncated and floored
// division agree. A run that reaches below zero is therefore decoded word by
// word.
//
// The loop walks one word and then steps a row: when 0 <= stride <
// RowWords, the words after it that stay in its row are hits in its bank,
// and one closed form takes them all (the row step). Other strides walk
// every word.
//
// The arrival cycle is fixed, so refresh catch-up and the max(arrival,
// refreshHold) floor are settled once, and every completion goes through the
// bus, which only moves forward: the last word has both the largest latency
// and the latest completion.
//
// Each walked word also lowers its bank's slack to bus - ready, the one
// piece of the shift proof that needs every word (a row step never lowers
// it); ConsumeRuns reads the rest off the state before and after the call.
func (m *Model) serve(arrival, addr, stride, n int64) int64 {
	switch {
	case n <= 0:
		return 0
	case n > 1 && (addr < 0 || addr+(n-1)*stride < 0):
		var done int64
		for ; n > 0; n-- {
			done = m.serve(arrival, addr, 0, 1)
			addr += stride
		}
		return done
	}
	cfg := &m.cfg
	rowWords, banks := cfg.RowWords, int64(cfg.Banks)
	tRCD, tCAS, tRP, busWord := cfg.TRCD, cfg.TCAS, cfg.TRP, cfg.BusCyclesPerWord

	row := addr / rowWords
	rowOff := addr - row*rowWords
	bank := row % banks
	// Per-word steps: an offset in [0, RowWords), whole rows reduced modulo
	// the bank count.
	var dRow, dRowOff, dBank int64
	if n > 1 {
		dRow, dRowOff = floorDivMod(stride, rowWords)
		_, dBank = floorDivMod(dRow, banks)
	}

	m.refresh(arrival)
	floor, bus := max(arrival, m.refreshHold), m.bus
	var hits, stepped, sumDone int64
	for left := n; ; {
		b := &m.banks[bank]
		start := max(floor, b.cmdFree)
		var ready int64
		if b.openRow == row {
			// CAS commands pipeline: the bank takes a new column command
			// every bus slot while the CAS latency overlaps with earlier
			// transfers.
			hits++
			ready = start + tCAS
			b.cmdFree = start + busWord
		} else {
			activate := start + tRCD
			if b.openRow >= 0 {
				activate += tRP
			}
			ready = activate + tCAS
			b.openRow = row
			b.cmdFree = activate + busWord
		}
		// The data transfer occupies the bus.
		m.slack[bank] = min(m.slack[bank], bus-ready)
		bus = max(ready, bus) + busWord
		sumDone += bus
		left--

		// The row step: when the next word stays in this row, so do the next
		// k, and they are all hits in this bank. Its cmdFree is now above the
		// floor, so the j-th of them is ready at ready + j·busWord, and the
		// bus, already at or past ready + busWord, is still theirs to wait
		// for: each transfer ends one bus slot after the one before it.
		// Their bus - ready is max(0, the gap above), so the bank's slack
		// stays as it is.
		if dRow == 0 && left > 0 && rowOff+dRowOff < rowWords {
			k := left
			if dRowOff > 0 {
				k = min(k, (rowWords-1-rowOff)/dRowOff)
			}
			sumDone += k*bus + busWord*triangle(k)
			bus += k * busWord
			b.cmdFree += k * busWord
			hits += k
			stepped += k
			rowOff += k * dRowOff
			left -= k
		}
		if left == 0 {
			break
		}

		rowOff += dRowOff
		row += dRow
		bank += dBank
		if rowOff >= rowWords {
			rowOff -= rowWords
			row++
			bank++
		}
		if bank >= banks {
			bank -= banks
		}
	}
	m.bus = bus
	m.stats.Requests += n
	m.stats.RowHits += hits
	m.stats.RowMisses += n - hits
	m.stats.TotalLatency += sumDone - n*arrival
	m.stats.MaxLatency = max(m.stats.MaxLatency, bus-arrival)
	m.stats.LastCompletion = max(m.stats.LastCompletion, bus)
	m.stats.BusBusy += n * busWord
	m.stepped += stepped
	m.walked += n - stepped
	return bus
}

// refresh applies the refresh windows due before arrival.
func (m *Model) refresh(arrival int64) {
	if m.cfg.TREFI == 0 {
		return
	}
	for arrival >= m.nextRefresh {
		m.refreshHold = max(m.refreshHold, m.nextRefresh+m.cfg.TRFC)
		m.nextRefresh += m.cfg.TREFI
		m.stats.Refreshes++
	}
}

// floorDivMod returns the floored quotient and the remainder in [0, d) of
// a by d > 0.
func floorDivMod(a, d int64) (q, r int64) {
	q = a / d
	if r = a - q*d; r < 0 {
		q, r = q-1, r+d
	}
	return q, r
}

// Consume implements trace.Consumer: each address in the batch is a word
// request arriving at the given cycle.
func (m *Model) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(m, cycle, addrs) }

// ConsumeRuns implements trace.RunConsumer: each address is a word request
// arriving at the given cycle, served in call order straight off the
// progressions, a run per call.
//
// A call the armed shift proof covers is replayed instead; any other is
// served in full and recorded, and a recorded call may arm the proof from
// the one before it (arm). Only calls through here are recorded: serve
// alone leaves the record behind.
func (m *Model) ConsumeRuns(cycle int64, runs []trace.Run) {
	if m.proof.left > 0 && m.replay(cycle, runs, 0, 1) == 1 {
		return
	}
	m.proof.left = 0
	m.prev, m.cur = m.cur, m.prev
	m.prev.ok = m.prev.ok && m.adjacent
	before := m.stats
	m.begin(cycle, runs)
	for _, r := range runs {
		m.serve(cycle, r.Base, r.Stride, r.Count)
	}
	m.record(before)
	m.adjacent = true
	m.arm()
}

// ConsumeSweep implements the DRAM side of trace.Sweep.Feed: it leaves the
// model exactly as the sweep's calls through ConsumeRuns would. Wherever the
// armed proof covers a stretch of the calls, the stretch is replayed in one
// step (replay); every other call, the two that arm the proof among them,
// goes through ConsumeRuns.
func (m *Model) ConsumeSweep(s trace.Sweep) {
	runs := append(m.sweepRuns[:0], s.Runs...)
	for j := int64(0); j < s.Times; {
		var k int64
		if m.proof.left > 0 {
			k = m.replay(s.Cycle+j, runs, s.Step, s.Times-j)
		}
		if k > 0 {
			m.replayedSweeps++
		} else {
			m.ConsumeRuns(s.Cycle+j, runs)
			k = 1
		}
		for i := range runs {
			runs[i].Base += k * s.Step
		}
		j += k
	}
	m.sweepRuns = runs
}

// begin opens cur for a call about to be served: its runs and the state at
// call start, with every bank's slack reset. A call with more than
// maxRecordRuns runs, or one reaching below zero, is not recorded.
func (m *Model) begin(cycle int64, runs []trace.Run) {
	c := m.cur
	c.arrival, c.ok = cycle, len(runs) <= maxRecordRuns
	for _, r := range runs {
		if r.Base < 0 || r.Base+(r.Count-1)*r.Stride < 0 {
			c.ok = false
		}
	}
	if !c.ok {
		return
	}
	c.runs = append(c.runs[:0], runs...)
	c.bus = m.bus
	copy(c.start, m.banks)
	for i := range m.slack {
		m.slack[i] = math.MaxInt64
	}
}

// record closes cur after its call was served. A bank was touched when its
// cmdFree moved: every word moves it.
func (m *Model) record(before Stats) {
	c := m.cur
	if !c.ok {
		return
	}
	c.n = m.stats.Requests - before.Requests
	c.hits = m.stats.RowHits - before.RowHits
	c.sumDone = m.stats.TotalLatency - before.TotalLatency + c.n*c.arrival
	c.busEnd = m.bus
	c.banks = c.banks[:0]
	floor := max(c.arrival, m.refreshHold)
	for i, b := range m.banks {
		if b.cmdFree == c.start[i].cmdFree {
			continue
		}
		c.banks = append(c.banks, i)
		if floor > c.start[i].cmdFree {
			c.ok = false
		}
	}
	c.ok = c.ok && c.n > 0
	// The call keeps the slack serve accumulated; begin resets the other.
	c.slack, m.slack = m.slack, c.slack
}

// arm checks the shift proof on the consecutive fully served calls prev
// and cur and, when it holds, arms it for the calls after cur.
//
// cur must be a successor of prev, so both issue one (bank, row, hit)
// sequence from the same open rows, and both must have found a free floor.
// Every completion is then a max of one bus term and bank terms, fixed
// offsets from the bus and the banks' cmdFree at call start. With delta the
// growth of the bus end and dBank each bank's cmdFree growth per call, the
// free floor moves every ready time of a bank by exactly its dBank. By
// induction over cur's words, every completion is at most delta later than
// prev's: the bus start moved at most delta; a word of a bank with dBank <=
// delta has both terms moved at most delta; and left >= 1 gives a bank with
// dBank > delta a slack in cur of at least dBank - delta > 0, so each of its
// words waited for the bus and completed one bus slot after the word before
// it. The sum of completions is exactly n·delta higher, so every completion
// is exactly delta later. A later successor with a free floor sees the
// same shifts again, except that each bank with dBank > delta loses that
// excess of its slack per call, which bounds the proof to left calls.
func (m *Model) arm() {
	p, c := m.prev, m.cur
	if !p.ok || !c.ok || p.n != c.n || p.hits != c.hits || len(p.runs) != len(c.runs) {
		return
	}
	// No headroom reaches a whole row; the exact headroom is checked last.
	for i, r := range c.runs {
		q := p.runs[i]
		if r.Count != q.Count || r.Stride != q.Stride || r.Base < q.Base || r.Base-q.Base >= m.cfg.RowWords {
			return
		}
	}
	for _, i := range c.banks {
		if p.start[i].openRow != c.start[i].openRow {
			return
		}
	}
	delta := c.busEnd - p.busEnd
	if c.bus-p.bus > delta || c.sumDone-p.sumDone != c.n*delta {
		return
	}
	left := int64(math.MaxInt64)
	dBank := m.proof.dBank[:0]
	for _, i := range c.banks {
		d := c.start[i].cmdFree - p.start[i].cmdFree
		dBank = append(dBank, d)
		if over := d - delta; over > 0 {
			left = min(left, c.slack[i]/over)
		}
	}
	if left <= 0 {
		return
	}
	// cur's words sit as far above prev's as its bases moved, in the same
	// rows, if no base moved past its run's headroom.
	c.head = c.head[:0]
	for i, r := range c.runs {
		h := m.rowHead(p.runs[i]) - (r.Base - p.runs[i].Base)
		if h < 0 {
			return
		}
		c.head = append(c.head, h)
	}
	m.proof = shift{left: left, delta: delta, dBank: dBank, sumDone: c.sumDone}
}

// replay serves by the armed proof a stretch of calls and returns its
// length k, zero when the proof does not cover the whole stretch. The calls
// are times calls of a sweep: call j arrives at cycle+j with runs' bases
// moved by j·step. The stretch is the longest run of them that are
// successors of cur — every base between cur's and its headroom, so both
// ends of the stretch suffice — and at most the proof's left. It is served
// only when the floor at its last arrival, refresh caught up, is at or below
// every touched bank's cmdFree now: floors and cmdFree only grow along the
// stretch, so that one check is each call's. A stretch that fails it is
// left to the caller, call by call (ConsumeRuns checks each call's own
// floor). Every word of call j then completes j·delta after the last
// call's; the sums over the stretch are closed forms, open rows stay as
// they are, and refresh catches up once, to the last arrival, since no
// call's floor mattered beyond passing the check.
func (m *Model) replay(cycle int64, runs []trace.Run, step, times int64) int64 {
	c, p := m.cur, &m.proof
	if len(runs) != len(c.runs) {
		return 0
	}
	k := min(times, p.left)
	for i, r := range runs {
		q := c.runs[i]
		d := r.Base - q.Base
		if r.Count != q.Count || r.Stride != q.Stride || d < 0 || d > c.head[i] {
			return 0
		}
		if step > 0 {
			k = min(k, (c.head[i]-d)/step+1)
		} else if step < 0 {
			k = min(k, d/-step+1)
		}
	}
	// The floor at the last arrival, refresh caught up, must be free
	// against every touched bank's cmdFree now.
	last := cycle + k - 1
	floor := max(last, m.holdAt(last))
	for _, i := range c.banks {
		if floor > m.banks[i].cmdFree {
			return 0
		}
	}
	for b, i := range c.banks {
		m.banks[i].cmdFree += k * p.dBank[b]
	}
	// Call j, 1 <= j <= k, arrives at cycle+j-1; its completions sum to
	// sumDone + j·n·delta, its last is bus + j·delta. Latency is linear in
	// j, so the ends hold its maximum.
	n, s := c.n, &m.stats
	s.TotalLatency += k*p.sumDone + n*p.delta*triangle(k) - n*(k*cycle+triangle(k-1))
	s.MaxLatency = max(s.MaxLatency, m.bus+p.delta-cycle, m.bus+k*p.delta-last)
	m.bus += k * p.delta
	s.LastCompletion = max(s.LastCompletion, m.bus)
	p.sumDone += k * n * p.delta
	p.left -= k
	s.Requests += k * n
	s.RowHits += k * c.hits
	s.RowMisses += k * (n - c.hits)
	s.BusBusy += k * n * m.cfg.BusCyclesPerWord
	m.refresh(last)
	m.adjacent = false
	m.replayedCalls += k
	m.replayedWords += k * n
	return k
}

// holdAt is refreshHold once refresh has caught up to arrival, without
// applying it.
func (m *Model) holdAt(arrival int64) int64 {
	t := m.cfg.TREFI
	if t == 0 || arrival < m.nextRefresh {
		return m.refreshHold
	}
	due := m.nextRefresh + (arrival-m.nextRefresh)/t*t
	return max(m.refreshHold, due+m.cfg.TRFC)
}

// triangle is k(k+1)/2, halving the even factor first.
func triangle(k int64) int64 {
	if k%2 == 0 {
		return k / 2 * (k + 1)
	}
	return (k + 1) / 2 * k
}

// rowHead is how far r's base may move up with every word keeping its row:
// the smallest RowWords-1-(a mod RowWords) over the run's addresses a,
// stepping the offset as serve does.
func (m *Model) rowHead(r trace.Run) int64 {
	g := m.cfg.RowWords
	_, off := floorDivMod(r.Base, g)
	_, step := floorDivMod(r.Stride, g)
	top := off
	for i := int64(1); i < r.Count && top < g-1; i++ {
		if off += step; off >= g {
			off -= g
		}
		top = max(top, off)
	}
	return g - 1 - top
}

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }

// Replayed reports how many calls, and words in them, the shift proof
// served rather than word by word, and in how many stretches of a sweep
// replayed in one step (sweeps); and of the words serve took, how many by
// a row step (stepped) and how many one at a time (walked). words, stepped
// and walked sum to Stats().Requests. It is host-side provenance, not a
// simulated quantity, so it stays out of Stats.
func (m *Model) Replayed() (calls, words, sweeps, stepped, walked int64) {
	return m.replayedCalls, m.replayedWords, m.replayedSweeps, m.stepped, m.walked
}
