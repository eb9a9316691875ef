// Package dram is a behavioural DRAM timing model that consumes the
// simulator's DRAM-interface traces. The paper feeds SCALE-Sim's interface
// traces to an external simulator (DRAMSim2); this package is the in-repo
// substitute: a channel/bank open-page model with activate/CAS/precharge
// timings, periodic refresh and a shared per-channel data bus, serving
// requests in arrival order, enough to answer whether a trace's demand
// bandwidth is achievable and at what latency.
package dram

import (
	"fmt"

	"scalesim/internal/trace"
)

// Config holds the timing and geometry parameters, all in accelerator
// clock cycles and words.
type Config struct {
	// Channels is the number of independent channels (0 means 1). Requests
	// interleave across channels at InterleaveWords granularity.
	Channels int
	// InterleaveWords is the channel-interleave granularity (0 means
	// RowWords).
	InterleaveWords int64
	// Banks is the number of banks per channel.
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
// accelerator clock: one channel, 8 banks, 2 KiB pages, tRCD = tCAS = tRP =
// 11, refresh every 7800 cycles for 139, and a bus that moves one word per
// cycle.
func DDR3() Config {
	return Config{
		Banks: 8, RowWords: 2048,
		TRCD: 11, TCAS: 11, TRP: 11,
		TREFI: 7800, TRFC: 139,
		BusCyclesPerWord: 1,
	}
}

// Key is the configuration's identity in result-cache keys: the %+v form
// every stored key was written with, down to the Policy:0 of a scheduler
// field Config no longer has, so existing cache directories stay warm.
func (c Config) Key() string {
	return fmt.Sprintf("{Channels:%d InterleaveWords:%d Banks:%d RowWords:%d TRCD:%d TCAS:%d TRP:%d TREFI:%d TRFC:%d BusCyclesPerWord:%d Policy:0}",
		c.Channels, c.InterleaveWords, c.Banks, c.RowWords, c.TRCD, c.TCAS, c.TRP, c.TREFI, c.TRFC, c.BusCyclesPerWord)
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels < 0:
		return fmt.Errorf("dram: negative Channels %d", c.Channels)
	case c.InterleaveWords < 0:
		return fmt.Errorf("dram: negative InterleaveWords %d", c.InterleaveWords)
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

// normalized applies the documented defaults.
func (c Config) normalized() Config {
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.InterleaveWords == 0 {
		c.InterleaveWords = c.RowWords
	}
	return c
}

// bank is one bank's state.
type bank struct {
	openRow int64 // -1 when precharged
	cmdFree int64 // cycle at which the bank can accept a new command
}

// channel is one channel's state.
type channel struct {
	banks       []bank
	bus         int64 // cycle at which the data bus frees
	nextRefresh int64
	refreshHold int64 // channel blocked until this cycle by refresh
}

// Model simulates a DRAM device.
type Model struct {
	cfg      Config
	channels []channel
	stats    Stats
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
	// BusBusy counts data-bus cycles consumed (summed over channels).
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
	cfg = cfg.normalized()
	m := &Model{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for c := range m.channels {
		ch := &m.channels[c]
		ch.banks = make([]bank, cfg.Banks)
		for i := range ch.banks {
			ch.banks[i].openRow = -1
		}
		if cfg.TREFI > 0 {
			ch.nextRefresh = cfg.TREFI
		}
	}
	return m, nil
}

// serve services the n words addr, addr+stride, ... that all arrive at the
// given cycle, in order, and returns the last word's completion cycle. It is
// the model's only state machine. Calls must arrive in non-decreasing cycle
// order.
//
// Only the first word is decoded by division. stride is split once into
// whole rows and a remainder in [0, RowWords); every later word adds the
// remainder to the row offset and carries into the row and the bank (and,
// with several channels, does the same at interleave granularity for the
// channel), which lands on exactly the (channel, row, bank) a division of
// the address would — for non-negative addresses, where truncated and
// floored division agree. A run that reaches below zero is therefore decoded
// word by word.
//
// The run is cut into stretches of consecutive words on one channel. Within
// a stretch the arrival cycle is fixed, so refresh catch-up and the
// max(arrival, refreshHold) floor are settled once, and every completion
// goes through the channel's bus, which only moves forward: the stretch's
// last word has both its largest latency and its latest completion.
func (m *Model) serve(arrival, addr, stride, n int64) int64 {
	if n > 1 && (addr < 0 || addr+(n-1)*stride < 0) {
		var done int64
		for ; n > 0; n-- {
			done = m.serve(arrival, addr, 0, 1)
			addr += stride
		}
		return done
	}
	cfg := &m.cfg
	rowWords, banks := cfg.RowWords, int64(cfg.Banks)
	ilWords, channels := cfg.InterleaveWords, int64(cfg.Channels)
	tRCD, tCAS, tRP, busWord := cfg.TRCD, cfg.TCAS, cfg.TRP, cfg.BusCyclesPerWord

	row := addr / rowWords
	rowOff := addr - row*rowWords
	bank := row % banks
	var chIdx, ilOff int64
	if channels > 1 {
		blk := addr / ilWords
		ilOff = addr - blk*ilWords
		chIdx = blk % channels
	}
	// Per-word steps: offsets in [0, granule), whole granules reduced
	// modulo the bank and channel counts.
	var dRow, dRowOff, dBank, dIlOff, dCh int64
	if n > 1 {
		dRow, dRowOff = floorDivMod(stride, rowWords)
		_, dBank = floorDivMod(dRow, banks)
		if channels > 1 {
			var dBlk int64
			dBlk, dIlOff = floorDivMod(stride, ilWords)
			_, dCh = floorDivMod(dBlk, channels)
		}
	}

	var hits, sumDone, done int64
	for left := n; left > 0; {
		ch := &m.channels[chIdx]
		if cfg.TREFI > 0 {
			// Apply any refresh windows due before this arrival.
			for arrival >= ch.nextRefresh {
				ch.refreshHold = max(ch.refreshHold, ch.nextRefresh+cfg.TRFC)
				ch.nextRefresh += cfg.TREFI
				m.stats.Refreshes++
			}
		}
		floor, bus := max(arrival, ch.refreshHold), ch.bus
		for {
			b := &ch.banks[bank]
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
			// The data transfer occupies the channel's bus.
			bus = max(ready, bus) + busWord
			sumDone += bus
			left--
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
			if channels > 1 {
				next := chIdx + dCh
				if ilOff += dIlOff; ilOff >= ilWords {
					ilOff -= ilWords
					next++
				}
				if next >= channels {
					next -= channels
				}
				if next != chIdx {
					chIdx = next
					break
				}
			}
		}
		ch.bus, done = bus, bus
		m.stats.MaxLatency = max(m.stats.MaxLatency, done-arrival)
		m.stats.LastCompletion = max(m.stats.LastCompletion, done)
	}
	m.stats.Requests += n
	m.stats.RowHits += hits
	m.stats.RowMisses += n - hits
	m.stats.TotalLatency += sumDone - n*arrival
	m.stats.BusBusy += n * busWord
	return done
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
// arriving at the given cycle, served in arrival order straight off the
// progressions, a run per call.
func (m *Model) ConsumeRuns(cycle int64, runs []trace.Run) {
	for _, r := range runs {
		m.serve(cycle, r.Base, r.Stride, r.Count)
	}
}

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }
