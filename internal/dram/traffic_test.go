package dram_test

import (
	"sync"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// callLog records the calls of one layer's DRAM streams in the order they
// arrive, runs copied.
type callLog struct {
	cycles []int64
	runs   [][]trace.Run
}

func (l *callLog) Consume(cycle int64, addrs []int64) { trace.ConsumeAddrs(l, cycle, addrs) }

func (l *callLog) ConsumeRuns(cycle int64, runs []trace.Run) {
	l.cycles = append(l.cycles, cycle)
	l.runs = append(l.runs, append([]trace.Run(nil), runs...))
}

// TestRealTrafficMatchesPerWordReference records BERTTiny's DRAM calls under
// each dataflow with a sink attached after the timing model on both DRAM
// streams, so it sees the model's exact call order, and replays every
// layer's calls through a fresh model and through the per-word reference:
// both must reproduce the layer's reported DRAMStats.
func TestRealTrafficMatchesPerWordReference(t *testing.T) {
	g, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, df := range []config.Dataflow{config.OutputStationary, config.WeightStationary, config.InputStationary} {
		var mu sync.Mutex
		logs := map[int]*callLog{}
		record := func(job engine.Job, set *engine.SinkSet) error {
			l := &callLog{}
			set.Attach(engine.DRAMRead, l)
			set.Attach(engine.DRAMWrite, l)
			mu.Lock()
			logs[job.Index] = l
			mu.Unlock()
			return nil
		}
		ddr := dram.DDR3()
		sim, err := core.New(config.New().WithDataflow(df), core.Options{DRAM: &ddr, Sinks: engine.Registry{record}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.SimulateGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		var replayed int64
		for i, layer := range res.Layers {
			l := logs[i]
			if l == nil || layer.DRAMStats == nil {
				t.Fatalf("%v layer %d: no recorded calls or no DRAM stats", df, i)
			}
			got, _ := dram.New(ddr)
			want, _ := dram.New(ddr)
			for k, cycle := range l.cycles {
				got.ConsumeRuns(cycle, l.runs[k])
				dram.RefConsume(want, cycle, trace.ExpandRuns(l.runs[k], nil))
			}
			if got.Stats() != want.Stats() || got.Stats() != *layer.DRAMStats {
				t.Errorf("%v layer %d (%s): replayed %+v, reference %+v, reported %+v",
					df, i, layer.Compute.Layer.Name, got.Stats(), want.Stats(), *layer.DRAMStats)
			}
			_, words, _, _, _ := got.Replayed()
			replayed += words
		}
		if replayed == 0 {
			t.Errorf("%v: the shift proof replayed no word of BERTTiny", df)
		}
	}
}
