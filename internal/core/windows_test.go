package core

import (
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

// TestWholeLayerKeyUnchanged pins the whole-layer compute key byte for
// byte to what it was before contexts carried a window, so result caches
// written to disk by earlier builds stay warm; a window that covers the
// whole mapping keys as the layer, and any other extends it with offsets
// and extents.
func TestWholeLayerKeyUnchanged(t *testing.T) {
	ddr := dram.DDR3()
	gemm := topology.FromGEMM("g", 70, 90, 50)
	bounded, err := New(config.New().WithArray(8, 12).WithSRAM(4, 4, 2), Options{DRAMBandwidth: 4, DRAM: &ddr})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(config.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sim  *Simulator
		node topology.Node
		win  systolic.Window
		want string
	}{
		{bounded, topology.NodeOf(gemm), systolic.Window{},
			"core|a8x12;s4/4/2;o0/10000000/20000000;df=os;wb1;et=false;vl12|op=conv|i70x1x90/f1x1x50/s1|sb=false;win=0;bw=4;dram={Channels:0 InterleaveWords:0 Banks:8 RowWords:2048 TRCD:11 TCAS:11 TRP:11 TREFI:7800 TRFC:139 BusCyclesPerWord:1 Policy:0}"},
		{plain, topology.Node{Name: "sm", Kind: topology.OpSoftmax, Layer: gemm}, systolic.Window{},
			"core|a32x32;s512/512/256;o0/10000000/20000000;df=os;wb1;et=false;vl32|op=softmax|i70x1x90/f1x1x50/s1|sb=false;win=0"},
		{plain, topology.NodeOf(gemm), systolic.Window{SrLen: 70, ScLen: 50},
			"core|a32x32;s512/512/256;o0/10000000/20000000;df=os;wb1;et=false;vl32|op=conv|i70x1x90/f1x1x50/s1|sb=false;win=0"},
		{plain, topology.NodeOf(gemm), systolic.Window{SrOff: 35, ScOff: 0, SrLen: 35, ScLen: 25},
			"core|a32x32;s512/512/256;o0/10000000/20000000;df=os;wb1;et=false;vl32|op=conv|i70x1x90/f1x1x50/s1|w35,0,35,25|sb=false;win=0"},
	} {
		if got := c.sim.nodeKey(c.node, c.win); got != c.want {
			t.Errorf("nodeKey(%s, %+v):\n got %q\nwant %q", c.node.Name, c.win, got, c.want)
		}
	}
}

// windowContexts is the contexts a partitioned layer expands into, for
// hand-picked windows.
func windowContexts(sim *Simulator, l topology.Layer, wins ...systolic.Window) []*LayerContext {
	ctxs := make([]*LayerContext, len(wins))
	for i, w := range wins {
		ctxs[i] = sim.newContext(0, i, topology.NodeOf(l))
		ctxs[i].Window = w
	}
	return ctxs
}

// TestSimulateWindows: a window goes down the path a layer goes down. The
// zero window is the layer — same result, same cache entry — windows are
// not observed as layers, and what the path cannot label per window it
// refuses.
func TestSimulateWindows(t *testing.T) {
	l := topology.Layer{Name: "conv", IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
		Channels: 8, NumFilters: 24, Stride: 1}
	cfg := config.New().WithArray(8, 8).WithSRAM(4, 4, 2)
	cache := simcache.New()
	rec := obsv.NewRecorder()
	sim, err := New(cfg, Options{Cache: cache, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := sim.SimulateLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	halves := []systolic.Window{{}, {SrLen: 72}, {SrOff: 72}}
	ctxs := windowContexts(sim, l, halves...)
	spans, err := sim.execute(nil, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ctxs[0].Result, whole) {
		t.Errorf("zero window differs from the layer:\nwindow %+v\nlayer  %+v", ctxs[0].Result, whole)
	}
	if cache.Stats().Hits != 1 || cache.Stats().Misses != 3 {
		t.Errorf("hits=%d misses=%d: want the zero window to replay the layer's entry and each half to miss",
			cache.Stats().Hits, cache.Stats().Misses)
	}
	a, b := ctxs[1].Result, ctxs[2].Result
	if a.Compute.MACs+b.Compute.MACs != whole.Compute.MACs {
		t.Errorf("halves perform %d + %d MACs, the layer %d", a.Compute.MACs, b.Compute.MACs, whole.Compute.MACs)
	}
	for i, ctx := range ctxs {
		if w := ctx.Result; w.Ledger.Check() != nil || w.Ledger.Total != w.Compute.Cycles {
			t.Errorf("window %d: ledger total %d, cycles %d, check: %v", i, w.Ledger.Total, w.Compute.Cycles, w.Ledger.Check())
		}
	}
	for i := range halves {
		if got := rec.LayerSeconds(i); got != 0 {
			t.Errorf("unit %d observed (%vs): windows are not layers", i, got)
		}
	}
	if got := len(rec.Spans()); got != 1+len(halves) {
		t.Errorf("%d engine spans, want one for the layer and one per window (%d)", got, 1+len(halves))
	}
	if spans != nil {
		t.Error("timeline hand-back without a timeline")
	}

	if _, err := sim.execute(nil, windowContexts(sim, l, systolic.Window{SrOff: 200}), nil); err == nil ||
		!strings.Contains(err.Error(), `"conv"`) {
		t.Errorf("window outside the mapping: %v", err)
	}
	// Per-window consumers are labeled with the layer's name alone, so
	// trace files of sibling windows would overwrite one another.
	if _, err := New(cfg, Options{TraceDir: t.TempDir(), Parts: analytical.Partitioning{Pr: 2, Pc: 1}}); err == nil ||
		!strings.Contains(err.Error(), "TraceDir") {
		t.Errorf("per-window trace files accepted: %v", err)
	}
}

// TestSimulateWindowsPanickingSink: a caller's sink that panics inside one
// window fails the run naming the layer and the window — what runNodes says
// of a layer — at every worker count, not the engine's bare job index.
func TestSimulateWindowsPanickingSink(t *testing.T) {
	l := topology.Layer{Name: "conv", IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
		Channels: 8, NumFilters: 24, Stride: 1}
	wins := []systolic.Window{{SrLen: 72}, {SrOff: 72}}
	boom := engine.Registry{func(job engine.Job, set *engine.SinkSet) error {
		if job.Index == 1 {
			set.Attach(engine.SRAMWriteOfmap, trace.ConsumerFunc(func(int64, []int64) { panic("boom") }))
		}
		return nil
	}}
	for _, workers := range []int{1, 2} {
		sim, err := New(config.New().WithArray(8, 8).WithSRAM(4, 4, 2), Options{Sinks: boom, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.execute(nil, windowContexts(sim, l, wins...), nil)
		if err == nil || !strings.Contains(err.Error(), `layer "conv" window {SrOff:72`) ||
			!strings.Contains(err.Error(), "boom") {
			t.Errorf("workers=%d: err = %v, want the panic under the layer's and window's name", workers, err)
		}
	}
}
