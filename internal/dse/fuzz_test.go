package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/job"
	"scalesim/internal/topology"
)

// FuzzReadPart checks the part-file reader — and the merge that hostile
// bytes reach through it — never panics, that an accepted part carries
// the live schema, and that an accepted merge keeps its books: one cycle
// node per row. Seeds are part files written here: both shards of a
// search, the header-only part an empty shard writes, and damaged copies.
func FuzzReadPart(f *testing.F) {
	runner, dir := testRunner(f, nil), f.TempDir()
	one := batch.Spec{Base: config.New(), Arrays: [][2]int{{8, 8}},
		Topologies: []topology.Topology{topology.TinyNet()}}
	headerOnly := false
	for _, s := range []struct {
		grid batch.Spec
		eps  float64
	}{{tinyGrid(), tinyEps}, {one, 0}} {
		for shard := 0; shard < 2; shard++ {
			res, err := Explore(s.grid, Options{Epsilon: s.eps, Shard: shard, Shards: 2}, runner, job.Live{})
			if err != nil {
				f.Fatal(err)
			}
			path := filepath.Join(dir, "seed.jsonl")
			if err := WritePart(path, res); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			headerOnly = headerOnly || bytes.Count(data, []byte("\n")) == 1
			f.Add(data)
			f.Add(data[:len(data)*2/3])
			f.Add(bytes.Replace(data, []byte(PartSchema), []byte("scalesim.dse.part/v0"), 1))
			f.Add(bytes.Replace(data, []byte(`"band_points":`), []byte(`"band_points":-`), 1))
			f.Add(bytes.Replace(data, []byte(`"total_cycles":`), []byte(`"total_cycles":7`), 1))
		}
	}
	if !headerOnly {
		f.Fatal("no seed is a header-only part")
	}

	path := filepath.Join(dir, "part.jsonl") // one per worker process, which runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := ReadPart(path)
		if err != nil {
			return
		}
		if p.Header.Schema != PartSchema {
			t.Fatalf("ReadPart accepted schema %q", p.Header.Schema)
		}
		res, err := Merge([]*Part{p})
		if err != nil {
			return
		}
		if int64(len(res.Rows)) != p.Header.BandPoints {
			t.Fatalf("merged %d rows of a %d-point band", len(res.Rows), p.Header.BandPoints)
		}
		nodes := 0
		if ca := res.Manifest.CycleAccounting; ca != nil {
			nodes = len(ca.Nodes)
		}
		if nodes != len(res.Rows) {
			t.Fatalf("merged manifest carries %d cycle nodes for %d rows", nodes, len(res.Rows))
		}
	})
}
