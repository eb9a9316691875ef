package vector

import (
	"testing"

	"scalesim/internal/topology"
	"scalesim/internal/trace"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Kind: topology.OpSoftmax, Rows: 4, Cols: 8, Operands: 1, Lanes: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Kind: topology.OpConv, Rows: 4, Cols: 4, Operands: 1, Lanes: 4},
		{Kind: topology.OpSoftmax, Rows: 0, Cols: 4, Operands: 1, Lanes: 4},
		{Kind: topology.OpSoftmax, Rows: 4, Cols: 4, Operands: 0, Lanes: 4},
		{Kind: topology.OpSoftmax, Rows: 4, Cols: 4, Operands: 1, Lanes: 0},
		{Kind: topology.OpLayerNorm, Rows: 4, Cols: 4, Operands: 2, Lanes: 4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, p)
		}
	}
}

func TestRunClosedForm(t *testing.T) {
	cases := []struct {
		name              string
		p                 Params
		cycles, ops       int64
		passes            int64
		utilization       float64
		checkExactUtilize bool
	}{
		// 8x8 eltwise on 8 lanes: 64/8 = 8 cycles, fully utilized.
		{"eltwise full", Params{Kind: topology.OpElementwise, Rows: 8, Cols: 8, Operands: 2, Lanes: 8},
			8, 64, 1, 1.0, true},
		// Softmax: three passes.
		{"softmax", Params{Kind: topology.OpSoftmax, Rows: 8, Cols: 8, Operands: 1, Lanes: 8},
			24, 192, 3, 1.0, true},
		// Ragged tail: 10 elems on 8 lanes is 2 cycles/pass.
		{"ragged", Params{Kind: topology.OpElementwise, Rows: 2, Cols: 5, Operands: 1, Lanes: 8},
			2, 10, 1, 10.0 / 16.0, true},
		{"layernorm", Params{Kind: topology.OpLayerNorm, Rows: 4, Cols: 16, Operands: 1, Lanes: 16},
			12, 192, 3, 1.0, true},
	}
	for _, tc := range cases {
		res, err := RunAt(tc.p, Layout{}, Sinks{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Cycles != tc.cycles || res.Ops != tc.ops || res.Passes != tc.passes {
			t.Errorf("%s: cycles=%d ops=%d passes=%d, want %d/%d/%d",
				tc.name, res.Cycles, res.Ops, res.Passes, tc.cycles, tc.ops, tc.passes)
		}
		if tc.checkExactUtilize && res.LaneUtilization != tc.utilization {
			t.Errorf("%s: utilization=%v, want %v", tc.name, res.LaneUtilization, tc.utilization)
		}
		if res.LaneUtilization > 1 {
			t.Errorf("%s: utilization %v exceeds 1", tc.name, res.LaneUtilization)
		}
	}
}

// counter tallies words per stream and checks cycle monotonicity.
type counter struct {
	words     int64
	lastCycle int64
	t         *testing.T
	name      string
}

func (c *counter) Consume(cycle int64, addrs []int64) {
	if cycle < c.lastCycle {
		c.t.Errorf("%s: cycle %d after %d", c.name, cycle, c.lastCycle)
	}
	c.lastCycle = cycle
	c.words += int64(len(addrs))
}

// TestTraceMatchesTraffic pins the core consistency contract: the trace
// path must emit exactly the word counts the closed-form Traffic
// computes, for every operator kind, including ragged shapes where rows
// wrap mid-cycle.
func TestTraceMatchesTraffic(t *testing.T) {
	cases := []Params{
		{Kind: topology.OpElementwise, Rows: 8, Cols: 8, Operands: 2, Lanes: 8},
		{Kind: topology.OpElementwise, Rows: 3, Cols: 7, Operands: 3, Lanes: 8},
		{Kind: topology.OpSoftmax, Rows: 5, Cols: 11, Operands: 1, Lanes: 4},
		{Kind: topology.OpLayerNorm, Rows: 4, Cols: 16, Operands: 1, Lanes: 16},
		// Layernorm with rows shorter than a lane batch: parameter runs
		// must split at row wraps, and DRAM fetch covers row 0 only.
		{Kind: topology.OpLayerNorm, Rows: 7, Cols: 5, Operands: 1, Lanes: 16},
		{Kind: topology.OpLayerNorm, Rows: 1, Cols: 33, Operands: 1, Lanes: 8},
	}
	for _, p := range cases {
		streams := map[string]*counter{}
		mk := func(name string) trace.Consumer {
			c := &counter{t: t, name: name}
			streams[name] = c
			return c
		}
		_, err := RunAt(p, Layout{}, Sinks{
			IfmapRead: mk("ifread"), IfmapDRAM: mk("ifdram"),
			FilterRead: mk("flread"), FilterDRAM: mk("fldram"),
			OfmapWrite: mk("ofwrite"), OfmapDRAM: mk("ofdram"),
		})
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		want := Traffic(p)
		got := TrafficTotals{
			InputSRAMReads:   streams["ifread"].words,
			ParamSRAMReads:   streams["flread"].words,
			OutputSRAMWrites: streams["ofwrite"].words,
			InputDRAMReads:   streams["ifdram"].words,
			ParamDRAMReads:   streams["fldram"].words,
			OutputDRAMWrites: streams["ofdram"].words,
		}
		if got != want {
			t.Errorf("%s %dx%d x%d lanes=%d:\ntrace   %+v\nclosed  %+v",
				p.Kind, p.Rows, p.Cols, p.Operands, p.Lanes, got, want)
		}
	}
}

// TestRunAtLayout: operand, parameter and output addresses land in their
// layout regions.
func TestRunAtLayout(t *testing.T) {
	p := Params{Kind: topology.OpLayerNorm, Rows: 2, Cols: 4, Operands: 1, Lanes: 4}
	lay := Layout{IfmapBase: 1000, ParamBase: 2000, OfmapBase: 3000}
	inRange := func(name string, lo, hi int64) trace.Consumer {
		return trace.ConsumerFunc(func(cycle int64, addrs []int64) {
			for _, a := range addrs {
				if a < lo || a >= hi {
					t.Errorf("%s: address %d outside [%d, %d)", name, a, lo, hi)
				}
			}
		})
	}
	elems := p.Elems()
	_, err := RunAt(p, lay, Sinks{
		IfmapRead:  inRange("ifmap", lay.IfmapBase, lay.IfmapBase+elems),
		FilterRead: inRange("params", lay.ParamBase, lay.ParamBase+2*p.Cols),
		OfmapWrite: inRange("ofmap", lay.OfmapBase, lay.OfmapBase+elems),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPassObserver: passes arrive in order, labeled, tiling the runtime.
func TestPassObserver(t *testing.T) {
	p := Params{Kind: topology.OpSoftmax, Rows: 8, Cols: 8, Operands: 1, Lanes: 8}
	var got []PassInfo
	res, err := RunAt(p, Layout{}, Sinks{Passes: PassObserverFunc(func(i PassInfo) { got = append(got, i) })})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d passes observed, want 3", len(got))
	}
	wantLabels := []string{"max", "exp-sum", "normalize"}
	var covered int64
	for i, pi := range got {
		if pi.Pass != int64(i) || pi.Label != wantLabels[i] {
			t.Errorf("pass %d: %+v", i, pi)
		}
		if pi.Start != covered {
			t.Errorf("pass %d starts at %d, want %d", i, pi.Start, covered)
		}
		covered += pi.Cycles
	}
	if covered != res.Cycles {
		t.Errorf("passes cover %d cycles, result says %d", covered, res.Cycles)
	}
}
