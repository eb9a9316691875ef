package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/topology"
)

// TestTraceDeterminismWithTimeline pins the timeline contract: attaching
// a timeline writer must not change a single byte of trace output or any
// aggregate. TinyNet runs traced at workers=4 under a bounded DRAM link
// with and without a writer; files and results must match exactly, and
// the exported timeline must be well-formed Trace Event JSON carrying
// both clock domains.
func TestTraceDeterminismWithTimeline(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)

	type run struct {
		files map[string][]byte
		res   RunResult
	}
	var runs []run
	var tlBuf bytes.Buffer
	var sim *Simulator
	for _, withTimeline := range []bool{false, true} {
		dir := t.TempDir()
		opt := Options{TraceDir: dir, Workers: 4, DRAMBandwidth: 4}
		if withTimeline {
			opt.Timeline = timeline.New(&tlBuf, timeline.Options{})
		}
		s, err := New(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		if withTimeline {
			sim = s
			if err := opt.Timeline.Close(); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		runs = append(runs, run{files: files, res: res})
	}

	plain, timed := runs[0], runs[1]
	if len(plain.files) != len(timed.files) {
		t.Fatalf("trace file counts differ: plain %d, timeline %d",
			len(plain.files), len(timed.files))
	}
	for name, want := range plain.files {
		got, ok := timed.files[name]
		if !ok {
			t.Errorf("timeline run missing trace file %s", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("trace file %s differs with timeline writer attached", name)
		}
	}
	if !reflect.DeepEqual(plain.res, timed.res) {
		t.Errorf("aggregates differ with timeline writer attached")
	}

	// The export itself: a JSON array of events each carrying ph/ts/pid,
	// with the machine process (layer/fold spans, counters) and the host
	// process (worker spans) both present.
	var events []map[string]any
	if err := json.Unmarshal(tlBuf.Bytes(), &events); err != nil {
		t.Fatalf("timeline is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("timeline is empty")
	}
	pids := map[float64]bool{}
	var spans, counters int
	for i, e := range events {
		for _, key := range []string{"ph", "ts", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		pids[e["pid"].(float64)] = true
		switch e["ph"] {
		case "X":
			spans++
		case "C":
			counters++
		}
	}
	if len(pids) < 2 {
		t.Fatalf("timeline has %d processes, want both clock domains", len(pids))
	}
	if spans < len(topo.Layers) || counters == 0 {
		t.Fatalf("timeline too sparse: %d spans, %d counters", spans, counters)
	}

	// The manifest summarizes the export.
	m := mustManifest(t, sim, timed.res)
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Timeline == nil {
		t.Fatal("manifest missing timeline summary")
	}
	if m.Timeline.Events != int64(len(events)) {
		t.Errorf("summary counts %d events, export has %d", m.Timeline.Events, len(events))
	}
	if m.Timeline.WindowCycles != timeline.DefaultWindow {
		t.Errorf("summary window %d, want %d", m.Timeline.WindowCycles, timeline.DefaultWindow)
	}
	if len(m.Timeline.PeakWordsPerCycle) == 0 {
		t.Error("summary has no counter peaks")
	}
	for _, ls := range m.Timeline.LayerStalls {
		if ls.StallFraction <= 0 || ls.StallFraction >= 1 {
			t.Errorf("layer %q stall fraction %v out of range", ls.Name, ls.StallFraction)
		}
	}
}

// TestTimelineStallsAreTheLayersOwn: a layer is measured once. With a
// timeline and a bounded link the recorder reads the layer's one stall
// analyzer, so the stall_cycles argument of every layer span is the layer's
// StallCycles — which recording intervals did not move.
func TestTimelineStallsAreTheLayersOwn(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)
	plain, err := New(cfg, Options{DRAMBandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := timeline.New(&buf, timeline.Options{})
	timed, err := New(cfg, Options{DRAMBandwidth: 2, Timeline: w, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := timed.Simulate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph   string
		Pid  int
		Args struct {
			Index  *int
			Stalls int64 `json:"stall_cycles"`
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	spans := map[int]int64{}
	for _, e := range events {
		if e.Ph == "X" && e.Pid == 1 && e.Args.Index != nil { // pid 1: the simulated machine
			spans[*e.Args.Index] = e.Args.Stalls
		}
	}
	stalled := 0
	for i, lr := range got.Layers {
		if lr.StallCycles != want.Layers[i].StallCycles {
			t.Errorf("layer %d: %d stall cycles with a timeline, %d without", i, lr.StallCycles, want.Layers[i].StallCycles)
		}
		if lr.StallCycles > 0 {
			stalled++
		}
		if span, ok := spans[i]; !ok || span != lr.StallCycles {
			t.Errorf("layer %d: span says %d stall cycles (present %t), result %d", i, span, ok, lr.StallCycles)
		}
	}
	if stalled == 0 {
		t.Fatal("no layer stalled: the link bound tests nothing")
	}
}
