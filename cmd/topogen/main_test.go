package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalesim/internal/topology"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range topology.BuiltInNames() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("list output missing %s", name)
		}
	}
}

func TestEmitToStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-net", "TinyNet"}, &buf); err != nil {
		t.Fatal(err)
	}
	topo, err := topology.ParseCSV("TinyNet", &buf)
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(topo.Layers) != 3 {
		t.Errorf("layers = %d", len(topo.Layers))
	}
}

// TestEmitToFile: -o receives exactly the bytes stdout would have, flat
// and graph alike, and a file that cannot be created or fully written
// fails the command.
func TestEmitToFile(t *testing.T) {
	dir := t.TempDir()
	for _, net := range []string{"AlexNet", "BERTTiny"} {
		path := filepath.Join(dir, net)
		if err := run([]string{"-net", net, "-o", path}, os.Stdout); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		if err := run([]string{"-net", net}, &stdout); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, stdout.Bytes()) || len(data) == 0 {
			t.Errorf("%s: -o file and stdout differ (%d vs %d bytes)", net, len(data), stdout.Len())
		}
	}
	topo, err := topology.LoadCSV(filepath.Join(dir, "AlexNet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Layers) != 8 {
		t.Errorf("layers = %d", len(topo.Layers))
	}

	if err := run([]string{"-net", "AlexNet", "-o", filepath.Join(dir, "missing", "alex.csv")}, os.Stdout); err == nil {
		t.Error("-o under a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Error("-o under a missing directory created it")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := run([]string{"-net", "AlexNet", "-o", "/dev/full"}, os.Stdout); err == nil {
			t.Error("-o onto a full device succeeded")
		}
	}
}

// TestStats checks the dedup view: ResNet50's repeated residual blocks
// must collapse to far fewer distinct shape keys than layers, and the
// Table IV GEMMs (distinct shapes) must show zero cacheable repeats.
func TestStats(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-net", "Resnet50", "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rn := topology.ResNet50()
	unique := len(rn.Graph().KeyStats())
	header := fmt.Sprintf("%s: %d layers, %d distinct shapes", rn.Name, len(rn.Layers), unique)
	if !strings.Contains(out, header) {
		t.Errorf("stats output missing %q:\n%s", header, out)
	}
	if unique >= len(rn.Layers) {
		t.Fatalf("ResNet50 exposes no reuse: %d keys for %d layers", unique, len(rn.Layers))
	}
	if !strings.Contains(out, "cacheable repeats:") {
		t.Errorf("stats output missing summary line:\n%s", out)
	}

	buf.Reset()
	if err := run([]string{"-net", "LanguageModels", "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	lm := topology.LanguageModels()
	if n := len(lm.Graph().KeyStats()); n != len(lm.Layers) {
		t.Fatalf("Table IV GEMMs share keys: %d keys for %d layers", n, len(lm.Layers))
	}
	if !strings.Contains(buf.String(), "cacheable repeats: 0 of") {
		t.Errorf("GEMM stats should report zero repeats:\n%s", buf.String())
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"-net", "NoSuchNet"}, &buf); err == nil {
		t.Error("unknown net accepted")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}
