package core

import (
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// TestBlockMemoInvisibleEndToEnd runs the BERTTiny operator graph with the
// DDR3 timing model and a bounded link twice: once sink-free, so the SRAM
// buffers skip every operand block they can prove resident and replay
// unscanned the blocks they can prove miss on every word — thrashing filter
// blocks under OS, first touches under all three dataflows (under WS in the
// IFMAP tensors that fit the buffer, inserted at once) — and
// once with a live observer on each SRAM stream, whose Tee hides the
// capability and forces the full streams. Cycles, traffic, peaks, DRAM
// statistics, stall cycles and ledgers must be equal — the DRAM-side
// consumers only ever see misses: a skipped block has none, and a replayed
// one hands them the runs it arrived as.
func TestBlockMemoInvisibleEndToEnd(t *testing.T) {
	g, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	ddr := dram.DDR3()
	for _, df := range config.Dataflows {
		cfg := config.New().WithArray(16, 16).WithDataflow(df).WithSRAM(8, 8, 4)
		run := func(observed bool) (RunResult, [3]int64) {
			rec := obsv.NewRecorder()
			opt := Options{Workers: 2, DRAM: &ddr, DRAMBandwidth: 4, Obs: rec}
			if observed {
				opt.Sinks = engine.Registry{func(_ engine.Job, set *engine.SinkSet) error {
					for _, st := range []engine.Stream{engine.SRAMReadIfmap, engine.SRAMReadFilter, engine.SRAMWriteOfmap} {
						set.Attach(st, trace.NewStats())
					}
					return nil
				}}
			}
			sim, err := New(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.SimulateGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			m := rec.Metrics()
			return res, [3]int64{m.Counter("memory.words_skipped").Value(), m.Counter("memory.words_thrashed").Value(),
				m.Counter("memory.words_first_touch").Value()}
		}
		skipping, shortcuts := run(false)
		full, none := run(true)
		fired := [3]bool{shortcuts[0] > 0, shortcuts[1] > 0, shortcuts[2] > 0}
		if want := [3]bool{true, df == config.OutputStationary, true}; fired != want || none != [3]int64{} {
			t.Errorf("%s: words skipped, thrashed and first touch sink-free %v (want skips, thrashing under OS only, "+
				"first touch), observed %v (want none)", df, shortcuts, none)
		}
		if !reflect.DeepEqual(skipping, full) {
			for i := range full.Layers {
				if !reflect.DeepEqual(skipping.Layers[i], full.Layers[i]) {
					t.Errorf("%s: node %s differs:\nskipping: %+v\nfull:     %+v",
						df, full.Layers[i].Compute.Layer.Name, skipping.Layers[i], full.Layers[i])
				}
			}
			t.Errorf("%s: results differ between the skipping and the observed run", df)
		}
	}
}
