package memory

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// callsOnly passes a buffer through whole, block bracket included, but
// hides its ConsumeSweep behind the shared unroll helper: every sweep
// reaches the buffer as the calls it stands for. It is the reference a
// sweep replayed whole must be indistinguishable from.
type callsOnly struct {
	b interface {
		trace.Consumer
		trace.RunConsumer
		trace.BlockConsumer
	}
}

func (c callsOnly) Consume(cycle int64, addrs []int64)        { c.b.Consume(cycle, addrs) }
func (c callsOnly) ConsumeRuns(cycle int64, runs []trace.Run) { c.b.ConsumeRuns(cycle, runs) }
func (c callsOnly) BeginBlock(blk trace.Block) bool           { return c.b.BeginBlock(blk) }
func (c callsOnly) ConsumeSweep(s trace.Sweep)                { s.Unroll(c.b) }
func (c callsOnly) EndBlock()                                 { c.b.EndBlock() }

// sweepOutcome is everything a memory system lets the outside observe, and
// the residency it ends with.
type sweepOutcome struct {
	report      Report
	read, write [sha256.Size]byte // the DRAM traces' CSV digests
	profiles    [3][]trace.ProfilePoint
	evictions   [2]int64
	// fifo is each read buffer's resident words, oldest first, after
	// reindex has written its replay queue into the ring.
	fifo     [2][]int64
	counters map[string]int64
}

// memoryCounters are the system's host-side counters but the sweep pair.
var memoryCounters = []string{"memory.region_fallbacks", "memory.blocks_skipped", "memory.words_skipped",
	"memory.blocks_thrashed", "memory.words_thrashed", "memory.blocks_first_touch", "memory.words_first_touch",
	"memory.blocks_fresh_write", "memory.words_fresh_write"}

// runSweeps simulates l into a fresh system whose buffers take sweeps whole
// or, behind callsOnly, as calls, with or without DRAM consumers. It
// returns the outcome and the sweeps and calls taken whole.
func runSweeps(t *testing.T, l topology.Layer, cfg config.Config, whole, dram bool) (sweepOutcome, [2]int64) {
	t.Helper()
	rd, wr := sha256.New(), sha256.New()
	rw, ww := trace.NewCSVWriter(rd), trace.NewCSVWriter(wr)
	reg := &obsv.Registry{}
	opt := Options{Metrics: reg}
	if dram {
		opt.DRAMRead, opt.DRAMWrite = rw, ww
	}
	sys, err := NewSystem(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	layerRegions(l, cfg)(sys)
	sinks := systolic.Sinks{IfmapRead: sys.Ifmap, FilterRead: sys.Filter, OfmapWrite: sys.Ofmap}
	if !whole {
		sinks = systolic.Sinks{IfmapRead: callsOnly{sys.Ifmap}, FilterRead: callsOnly{sys.Filter},
			OfmapWrite: callsOnly{sys.Ofmap}}
	}
	comp, err := systolic.Run(l, cfg, sinks)
	if err != nil {
		t.Fatal(err)
	}
	sys.Ofmap.Flush(comp.Cycles)
	for _, w := range []*trace.CSVWriter{rw, ww} {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	out := sweepOutcome{
		report:    sys.Report(comp.Cycles),
		profiles:  [3][]trace.ProfilePoint{sys.IfmapBW.Profile(), sys.FilterBW.Profile(), sys.OfmapBW.Profile()},
		evictions: [2]int64{sys.Ifmap.Evictions, sys.Filter.Evictions},
		counters:  map[string]int64{},
	}
	copy(out.read[:], rd.Sum(nil))
	copy(out.write[:], wr.Sum(nil))
	for i, b := range []*ReadBuffer{sys.Ifmap, sys.Filter} {
		if b.set.stale {
			b.set.reindex()
		}
		out.fifo[i] = fifoOrder(b.set)
	}
	for _, name := range memoryCounters {
		out.counters[name] = reg.Counter(name).Value()
	}
	return out, [2]int64{reg.Counter("memory.sweeps").Value(), reg.Counter("memory.sweep_calls").Value()}
}

// TestSweepMatchesCalls is the whole-sweep replay's exactness harness: real
// layers run twice, once with the buffers taking every sweep of a block
// proven all-miss (or, on the write side, of a tile proven fresh) whole,
// once with the same sweeps unrolled into calls. Reports, counters,
// evictions, DRAM traces, bandwidth profiles and the FIFO order the replay
// queue leaves must be equal, with and without a DRAM consumer; sweeps must
// have been taken whole, and under OS (only) every output tile proven fresh.
func TestSweepMatchesCalls(t *testing.T) {
	layers := []topology.Layer{
		resnetLayer(t, "CB2a_1"), resnetLayer(t, "CB4a_2"), resnetLayer(t, "CB5a_2"),
		topology.FromGEMM("gemm", 128, 768, 768),
	}
	var taken int64
	for _, l := range layers {
		for _, df := range config.Dataflows {
			for _, dram := range []bool{false, true} {
				t.Run(l.Name+"/"+df.String()+map[bool]string{false: "", true: "/dram"}[dram], func(t *testing.T) {
					cfg := config.New().WithDataflow(df)
					got, sweeps := runSweeps(t, l, cfg, true, dram)
					want, none := runSweeps(t, l, cfg, false, dram)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("sweeps taken whole and as calls differ:\nwhole: %+v %v %v\ncalls: %+v %v %v",
							got.report, got.evictions, got.counters, want.report, want.evictions, want.counters)
					}
					if none != [2]int64{} {
						t.Errorf("the reference took %d sweeps whole", none[0])
					}
					wantFresh := int64(0) // WS/IS outputs re-accumulate: no fresh tile
					if df == config.OutputStationary {
						wantFresh = got.report.OfmapSRAMWrites
					}
					if fresh := got.counters["memory.words_fresh_write"]; fresh != wantFresh {
						t.Errorf("%d OFMAP words written as fresh tiles, want %d", fresh, wantFresh)
					}
					if sweeps[0] > 0 && sweeps[1] < 2*sweeps[0] {
						t.Errorf("%d sweeps stand for %d calls", sweeps[0], sweeps[1])
					}
					taken += sweeps[0]
				})
			}
		}
	}
	if taken == 0 {
		t.Error("no sweep was taken whole")
	}
}
