package config

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDataflow(t *testing.T) {
	cases := []struct {
		in      string
		want    Dataflow
		wantErr bool
	}{
		{"os", OutputStationary, false},
		{"ws", WeightStationary, false},
		{"is", InputStationary, false},
		{"OS", OutputStationary, false},
		{" Ws ", WeightStationary, false},
		{"", 0, true},
		{"output", 0, true},
		{"osx", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseDataflow(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseDataflow(%q): expected error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDataflow(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseDataflow(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestDataflowStringRoundTrip(t *testing.T) {
	for _, d := range Dataflows {
		got, err := ParseDataflow(d.String())
		if err != nil {
			t.Fatalf("ParseDataflow(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("round trip of %v gave %v", d, got)
		}
	}
	if s := Dataflow(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown dataflow String() = %q, want mention of 99", s)
	}
}

func TestDefaultsValidate(t *testing.T) {
	cfg := New()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.MACs() != DefaultArrayHeight*DefaultArrayWidth {
		t.Errorf("MACs() = %d, want %d", cfg.MACs(), DefaultArrayHeight*DefaultArrayWidth)
	}
}

func TestWithHelpers(t *testing.T) {
	cfg := New().WithArray(8, 16).WithDataflow(WeightStationary).WithSRAM(64, 32, 16)
	if cfg.ArrayHeight != 8 || cfg.ArrayWidth != 16 {
		t.Errorf("WithArray: got %dx%d", cfg.ArrayHeight, cfg.ArrayWidth)
	}
	if cfg.Dataflow != WeightStationary {
		t.Errorf("WithDataflow: got %v", cfg.Dataflow)
	}
	if cfg.IfmapSRAMKB != 64 || cfg.FilterSRAMKB != 32 || cfg.OfmapSRAMKB != 16 {
		t.Errorf("WithSRAM: got %d/%d/%d", cfg.IfmapSRAMKB, cfg.FilterSRAMKB, cfg.OfmapSRAMKB)
	}
	// The helpers must not mutate the receiver.
	base := New()
	_ = base.WithArray(1, 1)
	if base.ArrayHeight != DefaultArrayHeight {
		t.Error("WithArray mutated its receiver")
	}
}

func TestSRAMWords(t *testing.T) {
	cfg := New().WithSRAM(1, 2, 3)
	if got := cfg.IfmapSRAMWords(); got != 1024 {
		t.Errorf("IfmapSRAMWords = %d, want 1024", got)
	}
	cfg.WordBytes = 2
	if got := cfg.FilterSRAMWords(); got != 1024 {
		t.Errorf("FilterSRAMWords (2-byte words) = %d, want 1024", got)
	}
	if got := cfg.OfmapSRAMWords(); got != 1536 {
		t.Errorf("OfmapSRAMWords (2-byte words) = %d, want 1536", got)
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func(mutate func(*Config)) Config {
		cfg := New()
		mutate(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero height", mk(func(c *Config) { c.ArrayHeight = 0 })},
		{"negative width", mk(func(c *Config) { c.ArrayWidth = -4 })},
		{"zero ifmap sram", mk(func(c *Config) { c.IfmapSRAMKB = 0 })},
		{"zero filter sram", mk(func(c *Config) { c.FilterSRAMKB = 0 })},
		{"zero ofmap sram", mk(func(c *Config) { c.OfmapSRAMKB = 0 })},
		{"zero word bytes", mk(func(c *Config) { c.WordBytes = 0 })},
		{"negative offset", mk(func(c *Config) { c.IfmapOffset = -1 })},
		{"bad dataflow", mk(func(c *Config) { c.Dataflow = Dataflow(42) })},
		{"overlapping offsets", mk(func(c *Config) { c.FilterOffset = c.IfmapOffset })},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

const sampleCfg = `
[general]
run_name = google_tpu_like  # trailing comment

; full-line comment
[architecture_presets]
ArrayHeight: 256
ArrayWidth:  256
IfmapSramSz:   6144
FilterSramSz:  6144
OfmapSramSz:   2048
IfmapOffset:    0
FilterOffset:   10000000
OfmapOffset:    20000000
Dataflow : ws
Topology : topologies/yolo.csv
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(strings.NewReader(sampleCfg))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.RunName != "google_tpu_like" {
		t.Errorf("RunName = %q", cfg.RunName)
	}
	if cfg.ArrayHeight != 256 || cfg.ArrayWidth != 256 {
		t.Errorf("array = %dx%d, want 256x256", cfg.ArrayHeight, cfg.ArrayWidth)
	}
	if cfg.IfmapSRAMKB != 6144 || cfg.FilterSRAMKB != 6144 || cfg.OfmapSRAMKB != 2048 {
		t.Errorf("sram = %d/%d/%d", cfg.IfmapSRAMKB, cfg.FilterSRAMKB, cfg.OfmapSRAMKB)
	}
	if cfg.Dataflow != WeightStationary {
		t.Errorf("dataflow = %v, want ws", cfg.Dataflow)
	}
	if cfg.TopologyPath != "topologies/yolo.csv" {
		t.Errorf("topology = %q", cfg.TopologyPath)
	}
	// Defaults survive for unspecified keys.
	if cfg.WordBytes != DefaultWordBytes {
		t.Errorf("WordBytes = %d, want default %d", cfg.WordBytes, DefaultWordBytes)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown key", "[architecture_presets]\nArayHeight: 2\n"},
		{"bad int", "[architecture_presets]\nArrayHeight: two\n"},
		{"bad dataflow", "[architecture_presets]\nDataflow: systolic\n"},
		{"key before section", "ArrayHeight: 2\n"},
		{"malformed section", "[architecture_presets\nArrayHeight: 2\n"},
		{"empty section name", "[]\n"},
		{"missing separator", "[architecture_presets]\nArrayHeight 2\n"},
		{"empty key", "[architecture_presets]\n: 2\n"},
		{"invalid result", "[architecture_presets]\nArrayHeight: 0\n"},
		{"bad edgetrim", "[architecture_presets]\nEdgeTrim: maybe\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	cfg := New().WithArray(14, 12).WithDataflow(InputStationary).WithSRAM(288, 64, 32)
	cfg.RunName = "roundtrip"
	cfg.TopologyPath = "nets/test.csv"
	cfg.WordBytes = 2
	cfg.EdgeTrim = true

	var buf bytes.Buffer
	if err := Write(&buf, cfg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse(Write(cfg)): %v", err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cfg)
	}
}

// TestWriteParseRoundTripQuick property-tests the file round trip over random
// valid configurations.
func TestWriteParseRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Config {
		cfg := New()
		cfg.RunName = "r" // run names with spaces are out of scope for the dialect
		cfg.ArrayHeight = 1 + rng.Intn(512)
		cfg.ArrayWidth = 1 + rng.Intn(512)
		cfg.IfmapSRAMKB = 1 + rng.Intn(8192)
		cfg.FilterSRAMKB = 1 + rng.Intn(8192)
		cfg.OfmapSRAMKB = 1 + rng.Intn(8192)
		cfg.WordBytes = 1 + rng.Intn(8)
		cfg.Dataflow = Dataflows[rng.Intn(len(Dataflows))]
		cfg.EdgeTrim = rng.Intn(2) == 0
		return cfg
	}
	f := func() bool {
		cfg := gen()
		var buf bytes.Buffer
		if err := Write(&buf, cfg); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scale.cfg")
	if err := os.WriteFile(path, []byte(sampleCfg), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cfg.ArrayHeight != 256 {
		t.Errorf("ArrayHeight = %d", cfg.ArrayHeight)
	}
	if _, err := Load(filepath.Join(dir, "missing.cfg")); err == nil {
		t.Error("Load of missing file succeeded")
	}
}

func TestINIAccessors(t *testing.T) {
	ini, err := ParseINI(strings.NewReader("[A]\nx=1\ny=2\n[b]\nz=3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ini.Get("a", "X"); !ok || v != "1" {
		t.Errorf("Get(a,X) = %q,%v", v, ok)
	}
	if _, ok := ini.Get("missing", "x"); ok {
		t.Error("Get on missing section succeeded")
	}
	if _, ok := ini.Get("a", "missing"); ok {
		t.Error("Get on missing key succeeded")
	}
	if got := ini.Keys("a"); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("Keys(a) = %v", got)
	}
}

func TestINIDuplicateSectionMerges(t *testing.T) {
	ini, err := ParseINI(strings.NewReader("[a]\nx=1\n[b]\ny=2\n[a]\nz=3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ini.Keys("a"); !reflect.DeepEqual(got, []string{"x", "z"}) {
		t.Errorf("Keys(a) = %v, want merged [x z]", got)
	}
	if v, _ := ini.Get("a", "z"); v != "3" {
		t.Errorf("merged section lost key: z=%q", v)
	}
}

// TestParseInts: the one shape parser takes exactly its integers — a
// missing, extra or non-numeric field is an error, never dropped.
func TestParseInts(t *testing.T) {
	for _, c := range []struct {
		s, sep string
		n      int
		want   []int // nil = error
	}{
		{"8x8", "x", 2, []int{8, 8}},
		{"16X4", "x", 2, []int{16, 4}},
		{" 8 x 8 ", "x", 2, []int{8, 8}},
		{"-1x2", "x", 2, []int{-1, 2}}, // range is the caller's check
		{"4,4,2", ",", 3, []int{4, 4, 2}},
		{"2/2/1", "/", 3, []int{2, 2, 1}},
		{"8x8x3", "x", 2, nil},
		{"8x8 3", "x", 2, nil},
		{"8x", "x", 2, nil},
		{"x8", "x", 2, nil},
		{"8", "x", 2, nil},
		{"", "x", 2, nil},
		{"banana", "x", 2, nil},
		{"4,4,2,9", ",", 3, nil},
		{"4,4", ",", 3, nil},
		{"2/2/1/7", "/", 3, nil},
		{"2/2/1.5", "/", 3, nil},
	} {
		got, err := ParseInts(c.s, c.sep, c.n)
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInts(%q, %q, %d) = %v, %v; want %v", c.s, c.sep, c.n, got, err, c.want)
		}
	}
}

// TestParseIntList: a list is exactly its integers — blanks are skipped,
// a trailing field that is not a number is refused, never dropped.
func TestParseIntList(t *testing.T) {
	for _, c := range []struct {
		s    string
		want []int64 // nil = error
	}{
		{"64", []int64{64}},
		{"1,4,16", []int64{1, 4, 16}},
		{" 1, 4 ,,16 ", []int64{1, 4, 16}},
		{"-3,0", []int64{-3, 0}}, // range is the caller's check
		{"64x", nil},
		{"16,64x", nil},
		{"1.5", nil},
		{"2 3", nil},
		{"", nil},
		{" , ", nil},
	} {
		got, err := ParseIntList(c.s)
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseIntList(%q) = %v, %v; want %v", c.s, got, err, c.want)
		}
	}
}
