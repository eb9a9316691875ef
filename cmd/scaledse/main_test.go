package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"scalesim/internal/dse"
	"scalesim/internal/obsv"
	"scalesim/internal/runstore"
)

// readManifest parses the manifest a -metrics flag wrote.
func readManifest(t *testing.T, path string) *obsv.Manifest {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunEmitsCSV(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"run", "-nets", "TinyNet", "-arrays", "8x8,16x16", "-dataflows", "os,ws", "-eps", "0.1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv has %d lines, want header + rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "Net,Array,Dataflow,SRAM,AnalyticalCycles,TotalCycles") {
		t.Errorf("unexpected header %q", lines[0])
	}
}

func TestBareFlagsDefaultToRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nets", "TinyNet", "-arrays", "8x8", "-tier1-only"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestTier1OnlyManifest(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.json")
	var buf bytes.Buffer
	err := run([]string{"run", "-nets", "TinyNet", "-enum-macs", "256", "-min-dim", "4",
		"-tier1-only", "-metrics", mpath}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m obsv.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "scaledse" || m.Search == nil {
		t.Fatalf("manifest tool=%q search=%v", m.Tool, m.Search)
	}
	if m.Search.Scored == 0 || m.Search.BandCandidates == 0 {
		t.Errorf("search stats empty: %+v", m.Search)
	}
	if m.Search.RefinedPoints != 0 {
		t.Errorf("tier1-only refined %d points", m.Search.RefinedPoints)
	}
}

// TestShardMergeCLI: the full sharded workflow through the CLI — two
// shard runs with separate cache dirs and part files, merged (rows and
// caches), byte-identical to the unsharded run.
func TestShardMergeCLI(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-nets", "TinyNet", "-arrays", "4x4,8x8,16x16",
		"-dataflows", "os,ws", "-srams", "2/2/1,4/4/2", "-eps", "0.25"}

	var whole bytes.Buffer
	wpath := filepath.Join(dir, "whole.json")
	if err := run(append([]string{"run", "-metrics", wpath}, grid...), &whole); err != nil {
		t.Fatal(err)
	}

	var partPaths, cacheDirs []string
	for _, shard := range []string{"0/2", "1/2"} {
		part := filepath.Join(dir, "part-"+shard[:1]+".jsonl")
		cdir := filepath.Join(dir, "cache-"+shard[:1])
		partPaths = append(partPaths, part)
		cacheDirs = append(cacheDirs, cdir)
		var buf bytes.Buffer
		args := append([]string{"run"}, grid...)
		args = append(args, "-shard", shard, "-part", part, "-cache-dir", cdir)
		if err := run(args, &buf); err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
	}

	var merged bytes.Buffer
	mpath := filepath.Join(dir, "merged.json")
	args := []string{"merge", "-metrics", mpath,
		"-cache-dir", filepath.Join(dir, "cache-merged"),
		"-caches", strings.Join(cacheDirs, ",")}
	if err := run(append(args, partPaths...), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), whole.Bytes()) {
		t.Errorf("merged CSV differs from unsharded:\nmerged:\n%s\nunsharded:\n%s",
			merged.String(), whole.String())
	}
	m := readManifest(t, mpath)
	if m.Search == nil || m.Search.RefinedPoints == 0 || m.Search.Shards != 1 {
		t.Errorf("merged manifest search stats: %+v", m.Search)
	}
	if m.Search.MaxRelErr != 0 {
		t.Errorf("stall-free grid measured rel err %g, want 0", m.Search.MaxRelErr)
	}
	// Sharded ≡ unsharded extends to the cycle account.
	w := readManifest(t, wpath)
	if m.Run != "dse" || w.Run != "dse" || m.CycleAccounting == nil ||
		!reflect.DeepEqual(m.CycleAccounting, w.CycleAccounting) {
		t.Errorf("merged manifest run %q cycle account %+v\nunsharded run %q cycle account %+v",
			m.Run, m.CycleAccounting, w.Run, w.CycleAccounting)
	}
}

// TestEmptyShardCLI: with more shards than band points some shard owns
// nothing; it must still exit 0 and write a part that merges.
func TestEmptyShardCLI(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"run", "-nets", "TinyNet", "-arrays", "8x8"}
	var whole bytes.Buffer
	if err := run(grid, &whole); err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, shard := range []string{"0/2", "1/2"} {
		part := filepath.Join(dir, "p"+shard[:1]+".jsonl")
		parts = append(parts, part)
		if err := run(append(grid, "-shard", shard, "-part", part), &bytes.Buffer{}); err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
	}
	var merged bytes.Buffer
	if err := run(append([]string{"merge"}, parts...), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), whole.Bytes()) {
		t.Errorf("merged CSV:\n%s\nunsharded:\n%s", merged.String(), whole.String())
	}
}

// TestRegisteredSearch: a -run-dir registered search is a run like any
// other — named, with a cycle account that closes over the CSV and one
// ledger node per refined point for scalequery cycles / top -by to read.
func TestRegisteredSearch(t *testing.T) {
	dir := t.TempDir()
	mpath, runDir := filepath.Join(dir, "m.json"), filepath.Join(dir, "runs")
	var csv bytes.Buffer
	err := run([]string{"run", "-nets", "TinyNet", "-arrays", "4x4,8x8,16x16", "-dataflows", "os,ws",
		"-eps", "0.25", "-metrics", mpath, "-run-dir", runDir}, &csv)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")[1:]
	for _, row := range rows {
		cycles, err := strconv.ParseInt(strings.Split(row, ",")[5], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += cycles
	}
	m := readManifest(t, mpath)
	if m.Run != "dse" || m.CycleAccounting == nil || m.CycleAccounting.TotalCycles != total {
		t.Fatalf("manifest run %q cycle account %+v, want dse totalling %d", m.Run, m.CycleAccounting, total)
	}
	store, err := runstore.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("registry lists %d runs (%v), want 1", len(entries), err)
	}
	_, stored, err := store.Get(entries[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Run != "dse" || stored.CycleAccounting == nil || len(stored.CycleAccounting.Nodes) != len(rows) {
		t.Errorf("registered run %q carries cycle account %+v, want %d nodes",
			entries[0].Run, stored.CycleAccounting, len(rows))
	}
}

// TestTier1OnlySaysNothing: a search that simulated nothing reports no
// progress — no "done, 0 units" line on stderr.
func TestTier1OnlySaysNothing(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"run", "-nets", "TinyNet", "-arrays", "8x8,16x16", "-tier1-only", "-progress"}, &bytes.Buffer{})
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	if !strings.Contains(string(out), "band kept") || strings.Contains(string(out), "units") {
		t.Errorf("stderr of a tier-1-only search:\n%s", out)
	}
}

// TestRefusesGraphNet: tier 1 scores flat nets only; an operator graph is
// refused by name, with the flat built-ins it could have been.
func TestRefusesGraphNet(t *testing.T) {
	err := run([]string{"run", "-nets", "TinyNet,BERTTiny", "-arrays", "8x8"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `"BERTTiny" is an operator graph`) || !strings.Contains(err.Error(), "AlexNet") {
		t.Errorf("graph net: %v", err)
	}
}

// TestRefusesTrailingJunk: a number is exactly its digits, a band width
// is not NaN or negative, and a shard lies within a shard count of at
// least one. Each of these used to be read or run (a NaN ε cut even the
// fronts and exited 0; -shard 1/0 refined the whole band as shard 1 of
// 1); each is refused naming the flag, before anything is scored,
// printed or written.
func TestRefusesTrailingJunk(t *testing.T) {
	dir := t.TempDir()
	out, part := filepath.Join(dir, "out.csv"), filepath.Join(dir, "p.jsonl")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-enum-macs", "64x"}, "-enum-macs"},
		{[]string{"-enum-macs", "64,256x"}, "-enum-macs"},
		{[]string{"-enum-macs", "0"}, "-enum-macs"},
		{[]string{"-arrays", "8x8", "-shard", "0/2/9"}, "-shard"},
		{[]string{"-arrays", "8x8", "-shard", "0/2junk"}, "-shard"},
		{[]string{"-arrays", "4x4,8x8,16x16", "-eps", "NaN"}, "eps NaN"},
		{[]string{"-arrays", "4x4,8x8,16x16", "-eps", "-1"}, "eps -1"},
		{[]string{"-arrays", "8x8", "-shard", "1/0"}, "-shard"},
		{[]string{"-arrays", "8x8", "-shard", "0/0"}, "-shard"},
		{[]string{"-arrays", "8x8", "-shard", "2/2"}, "shard 2/2"},
		{[]string{"-arrays", "8x8", "-shard", "-1/2"}, "shard -1/2"},
	} {
		var stdout bytes.Buffer
		err := run(append([]string{"run", "-nets", "TinyNet", "-o", out, "-part", part}, c.args...), &stdout)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.want)
		}
		for _, path := range []string{out, part} {
			if _, serr := os.Stat(path); stdout.Len() != 0 || !os.IsNotExist(serr) {
				t.Errorf("%v: a refused search wrote %s or stdout", c.args, filepath.Base(path))
			}
		}
	}
}

// TestRefusesInfiniteBandInFiles: -eps +Inf is a valid search (it keeps
// every candidate), but a part file, a manifest and a registered run all
// carry ε as JSON, which has no infinity. Each pair used to score and
// refine, then exit 1 on encoding, -metrics leaving a 0-byte file behind;
// now each is refused naming both flags, before anything is scored or
// written.
func TestRefusesInfiniteBandInFiles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	for _, c := range []struct{ flag, path string }{
		{"-part", filepath.Join(dir, "p.jsonl")},
		{"-metrics", filepath.Join(dir, "m.json")},
		{"-run-dir", filepath.Join(dir, "runs")},
	} {
		for _, eps := range []string{"Inf", "+Inf", "inf"} {
			var stdout bytes.Buffer
			err := run([]string{"run", "-nets", "TinyNet", "-arrays", "4x4,8x8", "-eps", eps, "-o", out, c.flag, c.path}, &stdout)
			if err == nil || !strings.Contains(err.Error(), "-eps +Inf") || !strings.Contains(err.Error(), c.flag) {
				t.Errorf("-eps %s %s: error %v, want one naming -eps +Inf and %s", eps, c.flag, err, c.flag)
			}
			for _, path := range []string{out, c.path} {
				if _, serr := os.Stat(path); stdout.Len() != 0 || !os.IsNotExist(serr) {
					t.Errorf("-eps %s %s: a refused search wrote %s or stdout", eps, c.flag, filepath.Base(path))
				}
			}
		}
	}

	// Alone, +Inf still searches: the band keeps every candidate.
	var csv bytes.Buffer
	if err := run([]string{"run", "-nets", "TinyNet", "-arrays", "4x4,8x8,16x16", "-eps", "Inf"}, &csv); err != nil {
		t.Fatalf("-eps Inf alone: %v", err)
	}
	if rows := strings.Count(strings.TrimSpace(csv.String()), "\n"); rows != 3 {
		t.Errorf("-eps Inf kept %d of 3 configs:\n%s", rows, csv.String())
	}
}

// TestFingerprintGolden pins the search fingerprint a part file carries:
// parts written by an earlier build must keep merging with parts written
// by this one. The literals were read from part files scaledse wrote.
func TestFingerprintGolden(t *testing.T) {
	part := filepath.Join(t.TempDir(), "p.jsonl")
	for _, c := range []struct {
		grid []string
		want string
	}{
		{[]string{"-nets", "TinyNet", "-arrays", "4x4,8x8,16x16", "-dataflows", "os,ws",
			"-srams", "2/2/1,4/4/2", "-eps", "0.25"}, "7c56a21b434cfb50"},
		{[]string{"-nets", "TinyNet", "-arrays", "4x4,8x8", "-eps", "0.1"}, "dc1c13ba9d212b28"},
		{[]string{"-nets", "TinyNet,AlexNet", "-enum-macs", "4096", "-min-dim", "8",
			"-dataflows", "os,ws,is", "-eps", "0.1"}, "32223e37015538ee"},
	} {
		if err := run(append([]string{"run", "-tier1-only", "-part", part}, c.grid...), &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		p, err := dse.ReadPart(part)
		if err != nil {
			t.Fatal(err)
		}
		if p.Header.Fingerprint != c.want {
			t.Errorf("%v: fingerprint %s, want %s", c.grid, p.Header.Fingerprint, c.want)
		}
	}
}

// TestOutputFile: -o receives exactly the bytes stdout would have, for
// run and merge, and a file that cannot be created or fully written fails
// the command.
func TestOutputFile(t *testing.T) {
	dir := t.TempDir()
	part := filepath.Join(dir, "p.jsonl")
	grid := []string{"-nets", "TinyNet", "-arrays", "8x8,16x16"}
	for _, verb := range [][]string{
		append([]string{"run", "-part", part}, grid...),
		{"merge", part},
	} {
		path := filepath.Join(dir, verb[0]+".csv")
		var stdout, none bytes.Buffer
		if err := run(verb, &stdout); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{verb[0], "-o", path}, verb[1:]...), &none); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, stdout.Bytes()) || len(data) == 0 || none.Len() != 0 {
			t.Errorf("%s -o file:\n%s\nstdout:\n%s", verb[0], data, stdout.Bytes())
		}
		missing := filepath.Join(dir, "missing", "x.csv")
		if err := run(append([]string{verb[0], "-o", missing}, verb[1:]...), &none); err == nil {
			t.Errorf("%s -o under a missing directory succeeded", verb[0])
		}
		if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
			t.Errorf("%s -o under a missing directory created it", verb[0])
		}
		if _, err := os.Stat("/dev/full"); err == nil {
			if err := run(append([]string{verb[0], "-o", "/dev/full"}, verb[1:]...), &none); err == nil {
				t.Errorf("%s -o onto a full device succeeded", verb[0])
			}
		}
	}
}

func TestRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"run", "-nets", "NoSuchNet", "-arrays", "8x8"},
		{"run", "-nets", "TinyNet", "-arrays", "8x"},
		{"run", "-nets", "TinyNet", "-arrays", "8x8x2"},
		{"run", "-nets", "TinyNet", "-arrays", "8x8", "-srams", "2/2/1/7"},
		{"run", "-nets", "TinyNet", "-arrays", "8x8", "-shard", "2"},
		{"merge"},
		{"merge", "-caches", "a,b"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
