package dse

import (
	"testing"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/topology"
)

// TestEveryJobKindLinesUpEntriesAndNodes: whatever job produced a
// manifest — a flat run, an operator graph, a scale-out run, a sweep, a
// search or its merge — its entries and its cycle nodes are one list:
// equal lengths, and the same (index, name, op) entry by entry, with any
// roofline rows named alike.
func TestEveryJobKindLinesUpEntriesAndNodes(t *testing.T) {
	r := testRunner(t, nil)
	run := func(spec job.Spec) *obsv.Manifest {
		t.Helper()
		res, err := r.Run(spec, job.Live{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Manifest
	}
	small := config.New().WithArray(4, 4).WithSRAM(4, 4, 2)
	bert, err := topology.BuiltInGraph("BERTTiny")
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := r.RunSweep("sweep", batch.Spec{Base: config.New(), Arrays: [][2]int{{8, 8}, {16, 16}},
		Workloads: []topology.Graph{topology.TinyNet().Graph(), bert}}, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Explore(tinyGrid(), Options{Epsilon: tinyEps}, r, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Part
	for shard := 0; shard < 2; shard++ {
		res, err := Explore(tinyGrid(), Options{Epsilon: tinyEps, Shard: shard, Shards: 2}, r, job.Live{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, &Part{Header: partHeader{Fingerprint: res.Fingerprint,
			BandPoints: res.Stats.BandPoints, Search: res.Stats}, Rows: res.Rows})
	}
	merged, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}

	for name, m := range map[string]*obsv.Manifest{
		"flat":  run(job.Spec{Config: small, Topology: topology.TinyNet(), Workers: 1}),
		"graph": run(job.Spec{Config: small, Graph: &bert, Workers: 1}),
		"parts": run(job.Spec{Config: small, Topology: topology.TinyNet(), Workers: 1,
			Parts: analytical.Partitioning{Pr: 3, Pc: 2}}),
		"sweep":     sweep.Manifest,
		"dse run":   whole.Manifest,
		"dse merge": merged.Manifest,
	} {
		ca := m.CycleAccounting
		if ca == nil || len(m.Layers) == 0 || len(m.Layers) != len(ca.Nodes) {
			t.Errorf("%s: %d entries, cycle account %+v", name, len(m.Layers), ca)
			continue
		}
		if len(ca.Roofline) != 0 && len(ca.Roofline) != len(m.Layers) {
			t.Errorf("%s: %d roofline rows for %d entries", name, len(ca.Roofline), len(m.Layers))
		}
		for i, e := range m.Layers {
			if n := ca.Nodes[i]; e.Index != n.Index || e.Name != n.Name || e.Op != n.Op {
				t.Errorf("%s: entry %d is (%d, %q, %q), node is (%d, %q, %q)",
					name, i, e.Index, e.Name, e.Op, n.Index, n.Name, n.Op)
			}
			if i < len(ca.Roofline) && (ca.Roofline[i].Name != e.Name || ca.Roofline[i].Op != e.Op) {
				t.Errorf("%s: entry %d is %q %q, roofline row %q %q",
					name, i, e.Name, e.Op, ca.Roofline[i].Name, ca.Roofline[i].Op)
			}
		}
	}
}
