package partition

import (
	"io"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/topology"
)

// TestBlockMemoInvisibleScaleOut: partition windows inherit the block
// residency memo through the same sinks. A timeline tees a sampler onto
// every partition's SRAM streams, which hides the capability and forces the
// full streams, so a run with a timeline is the reference the skipping run
// must equal — across grids, dataflows and SRAM shares small enough to
// thrash.
func TestBlockMemoInvisibleScaleOut(t *testing.T) {
	rec := obsv.NewRecorder()
	layers := []topology.Layer{testLayer(), topology.FromGEMM("gemm", 70, 90, 50)}
	for _, l := range layers {
		for _, df := range config.Dataflows {
			for _, sram := range [][3]int{{64, 64, 32}, {4, 4, 2}} {
				base := config.New().WithDataflow(df).WithSRAM(sram[0], sram[1], sram[2])
				for _, sp := range []Spec{spec(1, 1, 8, 8), spec(2, 2, 4, 8), spec(1, 4, 8, 4), spec(3, 1, 5, 7)} {
					skipping, err := Run(l, base, sp, Options{Obs: rec})
					if err != nil {
						t.Fatal(err)
					}
					tw := timeline.New(io.Discard, timeline.Options{})
					full, err := Run(l, base, sp, Options{Timeline: tw})
					if err != nil {
						t.Fatal(err)
					}
					if err := tw.Close(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(skipping, full) {
						t.Errorf("%s %s sram %v %s:\nskipping: %+v\nfull:     %+v",
							l.Name, df, sram, sp, skipping, full)
					}
				}
			}
		}
	}
	if rec.Metrics().Counter("memory.words_skipped").Value() == 0 {
		t.Error("no partition window skipped a block: the test compared the full path with itself")
	}
	if rec.Metrics().Counter("memory.words_thrashed").Value() == 0 {
		t.Error("no partition window replayed a block all-miss")
	}
}
