package disk_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scalesim/internal/obsv"
	"scalesim/internal/runstore"
	"scalesim/internal/simcache"
	"scalesim/internal/systolic"
)

// crashChildEnv, when set, turns this test binary into the writer
// TestKilledWriterLeavesStoresConsistent kills: its value is the shared
// directory.
const crashChildEnv = "SCALESIM_CRASH_CHILD_DIR"

// crashCap caps the shared cache at a handful of entries, so the child
// evicts as often as it stores.
const crashCap = 4 << 10

// TestKilledWriterLeavesStoresConsistent (ROADMAP 7(c)): the two stores
// processes share — the capped result cache and the run registry — keep
// no state but their directories, and every file in them arrives by
// disk.Replace, so a writer SIGKILLed at any instant leaves both
// consistent. The child (this binary, re-executed) loops capped Puts and
// registry Adds; the parent kills it at random instants, 20 times, then
// reopens both stores.
func TestKilledWriterLeavesStoresConsistent(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
	}
	dir := t.TempDir()
	cacheDir, runDir := filepath.Join(dir, "cache"), filepath.Join(dir, "runs")
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < 20; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestKilledWriterLeavesStoresConsistent$")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait until the child is writing, then kill it somewhere inside.
		for sc := bufio.NewScanner(stdout); ; {
			if !sc.Scan() {
				cmd.Wait()
				t.Fatalf("child %d exited before writing: %s", i, stderr.String())
			}
			if sc.Text() == "writing" {
				break
			}
		}
		time.Sleep(time.Duration(rng.Int63n(int64(20 * time.Millisecond))))
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()
	}
	// Orphans of a write killed between create and rename, planted so the
	// property is checked whether or not a kill left one.
	buckets, _ := filepath.Glob(filepath.Join(runDir, "runs", "*"))
	for _, d := range append(buckets, cacheDir) {
		if err := os.WriteFile(filepath.Join(d, ".tmp-orphan"), []byte(`{"schema":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cache, err := simcache.NewDiskLRU(cacheDir, crashCap)
	if err != nil {
		t.Fatalf("reopening the cache: %v", err)
	}
	if got := cache.DiskBytes(); got > crashCap {
		t.Errorf("reopened cache accounts %d bytes, over its %d cap", got, crashCap)
	}
	keys, invalid, err := simcache.ScanDir(cacheDir)
	if err != nil || invalid != 0 || len(keys) == 0 {
		t.Fatalf("ScanDir = %d keys, %d invalid, %v; want some keys and none invalid", len(keys), invalid, err)
	}
	for _, k := range keys {
		if _, ok := cache.Get(k); !ok {
			t.Errorf("scanned key %q does not Get", k)
		}
	}
	store, err := runstore.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := store.List()
	if err != nil || len(runs) == 0 {
		t.Fatalf("List = %d runs (err %v), want some", len(runs), err)
	}
	for _, e := range runs {
		if _, _, err := store.Get(e.ID); err != nil {
			t.Errorf("listed run %s does not Get: %v", e.ID, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(runDir, "runs", "*", "*.json"))
	if len(runs) != len(files) {
		t.Errorf("List = %d runs for %d run files", len(runs), len(files))
	}
	tmps, _ := filepath.Glob(filepath.Join(cacheDir, ".tmp-*"))
	more, _ := filepath.Glob(filepath.Join(runDir, "runs", "*", ".tmp-*"))
	t.Logf("%d cache entries, %d runs, %d orphaned temp files (%d planted)",
		len(keys), len(runs), len(tmps)+len(more), len(buckets)+1)
}

// crashChild writes into dir until it is killed.
func crashChild(dir string) {
	cache, err := simcache.NewDiskLRU(filepath.Join(dir, "cache"), crashCap)
	if err != nil {
		panic(err)
	}
	store, err := runstore.Open(filepath.Join(dir, "runs"))
	if err != nil {
		panic(err)
	}
	m := (*obsv.Recorder)(nil).Manifest()
	m.Tool, m.ConfigHash = "crash", "sha256:crash"
	for i := 0; ; i++ {
		key := fmt.Sprintf("%d/%d", os.Getpid(), i)
		cache.Put(key, simcache.Entry{Compute: systolic.Result{Cycles: int64(i)}})
		cache.Get(fmt.Sprintf("%d/%d", os.Getpid(), i/2))
		m.Run = fmt.Sprint(i % 4)
		m.Layers = []obsv.LayerMetrics{{Name: strings.Repeat("l", i%7+1), Cycles: int64(i)}}
		if _, err := store.Add(m); err != nil {
			panic(err)
		}
		if i == 0 {
			fmt.Println("writing")
		}
	}
}
