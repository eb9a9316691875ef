package batch_test

import (
	"testing"

	. "scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// TestShardPartition: ShardOf is a partition of the grid — every point
// has exactly one owner in [0, n), so the shards' union is the grid and
// no two overlap; owners are stable across calls and keyed by content
// addresses that distinct grid points do not share.
func TestShardPartition(t *testing.T) {
	spec := tinySpec()
	const shards = 3
	perShard := make([]int, shards)
	seen := make(map[string]bool)
	for _, p := range spec.Points() {
		owner := ShardOf(spec.Base, p, shards)
		if owner < 0 || owner >= shards {
			t.Fatalf("point %s owned by shard %d of %d", PointLabel(p), owner, shards)
		}
		if again := ShardOf(spec.Base, p, shards); again != owner {
			t.Errorf("point %s moved from shard %d to %d", PointLabel(p), owner, again)
		}
		perShard[owner]++
		h := PointHash(spec.Base, p)
		if seen[h] {
			t.Errorf("point %s shares its content address with another grid point", PointLabel(p))
		}
		seen[h] = true
	}
	if total := perShard[0] + perShard[1] + perShard[2]; total != len(spec.Points()) {
		t.Errorf("shards hold %v = %d points, grid has %d", perShard, total, len(spec.Points()))
	}
}

func TestShardOfDeterministic(t *testing.T) {
	spec := tinySpec()
	for _, p := range spec.Points() {
		if ShardOf(spec.Base, p, 1) != 0 || ShardOf(spec.Base, p, 0) != 0 {
			t.Errorf("shards<2 must map to shard 0")
		}
		a, b := ShardOf(spec.Base, p, 5), ShardOf(spec.Base, p, 5)
		if a != b {
			t.Errorf("ShardOf not deterministic: %d != %d", a, b)
		}
	}
}

// TestPointHashDistinguishes: the hash separates configs and workload
// shapes but ignores user-facing names.
func TestPointHashDistinguishes(t *testing.T) {
	base := config.New()
	p := Point{Array: [2]int{8, 8}, Dataflow: config.OutputStationary,
		SRAM: [3]int{2, 2, 1}, Workload: topology.TinyNet().Graph()}
	q := p
	q.Array = [2]int{16, 16}
	if PointHash(base, p) == PointHash(base, q) {
		t.Error("different arrays share a hash")
	}
	renamed := p
	renamed.Workload.Name = "OtherName"
	if PointHash(base, p) != PointHash(base, renamed) {
		t.Error("renaming the workload changed the hash")
	}
	reshaped := p
	reshaped.Workload.Nodes = append([]topology.Node(nil), p.Workload.Nodes...)
	reshaped.Workload.Nodes[0].Layer.NumFilters++
	if PointHash(base, p) == PointHash(base, reshaped) {
		t.Error("different layer shapes share a hash")
	}
}

// TestPointList: an explicit point list bypasses the cartesian expansion.
func TestPointList(t *testing.T) {
	spec := tinySpec()
	expanded := spec.Points()
	list := Spec{Base: spec.Base, PointList: expanded[:3]}
	got := list.Points()
	if len(got) != 3 {
		t.Fatalf("PointList points = %d, want 3", len(got))
	}
	for i := range got {
		if PointLabel(got[i]) != PointLabel(expanded[i]) {
			t.Errorf("point %d = %s, want %s", i, PointLabel(got[i]), PointLabel(expanded[i]))
		}
	}
	rows, err := run(list, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestRowLabelMatchesPointLabel(t *testing.T) {
	spec := tinySpec()
	rows, err := run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := spec.Points()
	for i, r := range rows {
		if r.Label() != PointLabel(points[i]) {
			t.Errorf("row %d label %q != point label %q", i, r.Label(), PointLabel(points[i]))
		}
	}
	want := "TinyNet/8x8/os/2-2-1"
	if rows[0].Label() != want {
		t.Errorf("label = %q, want %q", rows[0].Label(), want)
	}
}

// TestPointHashLiterals pins PointHash and ShardOf byte for byte: merged
// sharded sweeps deduplicate by the hash and every shard process derives
// its assignment from it, so neither may move.
func TestPointHashLiterals(t *testing.T) {
	base := config.New()
	g, _ := topology.BuiltInGraph("BERTTiny")
	for _, c := range []struct {
		p                Point
		hash             string
		shard7, shard1e3 int
	}{
		{Point{Array: [2]int{8, 8}, Dataflow: config.OutputStationary, SRAM: [3]int{2, 2, 1}, Workload: topology.TinyNet().Graph()},
			"sha256:a7b2992a5a25beb615ee617a9116acc9757499b9b5c74d1cda1e733d67536a08:918bf38b9ae572a3", 2, 90},
		{Point{Array: [2]int{16, 32}, Dataflow: config.WeightStationary, SRAM: [3]int{64, 64, 32}, Workload: g},
			"sha256:1be138739f3f2dddee482977b4b35c8873b7bc807b13848dc71e0df8bd4c31cd:891d14e90d660bb3", 6, 373},
	} {
		if got := PointHash(base, c.p); got != c.hash {
			t.Errorf("%s: PointHash = %q, want %q", PointLabel(c.p), got, c.hash)
		}
		if a, b := ShardOf(base, c.p, 7), ShardOf(base, c.p, 1000); a != c.shard7 || b != c.shard1e3 {
			t.Errorf("%s: ShardOf(7)=%d ShardOf(1000)=%d, want %d %d", PointLabel(c.p), a, b, c.shard7, c.shard1e3)
		}
	}
}
