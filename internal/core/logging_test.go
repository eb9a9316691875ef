package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/log"
	"scalesim/internal/runstore"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// traceFiles reads every trace file written to dir, keyed by file name.
func traceFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
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
	return files
}

// TestLoggingAndRegistryPreserveEquivalence pins the observability
// contract end to end: a run with a debug-level default logger installed
// and its manifest registered in a run store produces byte-identical
// results and trace files to a silent run, and the registry diff of the
// two runs reports zero deltas. Logging observes the simulation; it must
// never perturb it.
func TestLoggingAndRegistryPreserveEquivalence(t *testing.T) {
	topo := topology.TinyNet()
	cfg := config.New().WithArray(8, 8)

	run := func(traceDir string) (RunResult, *obsv.Manifest) {
		sim, err := New(cfg, Options{
			TraceDir: traceDir,
			Workers:  4,
			Cache:    simcache.New(),
			Obs:      obsv.NewRecorder(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Simulate(topo)
		if err != nil {
			t.Fatal(err)
		}
		return res, mustManifest(t, sim, res)
	}

	silentDir := t.TempDir()
	silentRes, silentManifest := run(silentDir)

	var events bytes.Buffer
	log.SetDefault(log.New(&events, log.LevelDebug))
	loggedDir := t.TempDir()
	loggedRes, loggedManifest := run(loggedDir)
	log.SetDefault(nil)

	if events.Len() == 0 {
		t.Fatal("debug logger captured no events; the test is vacuous")
	}
	for _, want := range []string{`"subsystem":"engine"`, `"subsystem":"core"`, `"msg":"stage done"`} {
		if !bytes.Contains(events.Bytes(), []byte(want)) {
			t.Errorf("log missing %s", want)
		}
	}

	if !bytes.Equal(resultJSON(t, silentRes), resultJSON(t, loggedRes)) {
		t.Fatal("logged run result differs from silent run")
	}
	silentFiles, loggedFiles := traceFiles(t, silentDir), traceFiles(t, loggedDir)
	if len(silentFiles) == 0 || len(silentFiles) != len(loggedFiles) {
		t.Fatalf("trace file counts differ: silent %d, logged %d", len(silentFiles), len(loggedFiles))
	}
	for name, want := range silentFiles {
		if got, ok := loggedFiles[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("trace file %s differs between silent and logged runs", name)
		}
	}

	// Registering both runs must not disturb either manifest, and the
	// registry's own diff must see a clean replay: same key, zero deltas.
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := store.Add(silentManifest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Add(loggedManifest)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatalf("same config and topology produced different keys: %s vs %s", a.Key, b.Key)
	}
	d := runstore.Diff(silentManifest, loggedManifest, 0.05)
	if !d.Identical() {
		t.Fatalf("registry diff of silent vs logged run is not identical: %+v", d)
	}
}
