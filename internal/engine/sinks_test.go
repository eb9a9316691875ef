package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalesim/internal/trace"
)

func TestSinkSetAttachAndTap(t *testing.T) {
	set := NewSinkSet()
	if set.Consumer(DRAMRead) != nil {
		t.Error("empty stream returned a consumer")
	}
	if set.Tap(DRAMRead, nil) != nil {
		t.Error("Tap with nothing attached and nil primary returned a consumer")
	}

	rec := &trace.Recorder{}
	set.Attach(DRAMRead, nil) // ignored
	set.Attach(DRAMRead, rec)
	if got := set.Consumer(DRAMRead); got != trace.Consumer(rec) {
		t.Error("single attachment not returned directly")
	}

	primary := &trace.Recorder{}
	tap := set.Tap(DRAMRead, primary)
	tap.Consume(1, []int64{10, 11})
	if primary.Accesses() != 2 || rec.Accesses() != 2 {
		t.Errorf("tap fan-out: primary %d, sink %d accesses", primary.Accesses(), rec.Accesses())
	}
	// Tap with nil primary still reaches the attached sink.
	set.Tap(DRAMRead, nil).Consume(2, []int64{12})
	if rec.Accesses() != 3 {
		t.Errorf("nil-primary tap lost events: %d accesses", rec.Accesses())
	}
}

func TestSinkSetValuesAndHooks(t *testing.T) {
	set := NewSinkSet()
	var order []string
	set.OnFinish(func() error { order = append(order, "f1"); return nil })
	set.OnFinish(func() error { order = append(order, "f2"); return nil })
	set.OnClose(func() error { order = append(order, "c1"); return nil })
	set.OnClose(func() error { order = append(order, "c2"); return nil })
	if err := set.Finish(); err != nil {
		t.Fatal(err)
	}
	set.Close()
	set.Close() // idempotent
	want := []string{"f1", "f2", "c2", "c1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("hook order %v, want %v", order, want)
	}

	bad := NewSinkSet()
	boom := errors.New("boom")
	bad.OnFinish(func() error { return boom })
	bad.OnFinish(func() error { t.Error("hook ran after failure"); return nil })
	if err := bad.Finish(); !errors.Is(err, boom) {
		t.Errorf("Finish error = %v", err)
	}
}

func TestRegistryAppliesFactoriesInOrder(t *testing.T) {
	var order []string
	reg := Registry{
		nil, // skipped
		func(job Job, set *SinkSet) error { order = append(order, "a:"+job.Layer); return nil },
		func(job Job, set *SinkSet) error { order = append(order, "b:"+job.Layer); return nil },
	}
	if _, err := reg.NewSinkSet(Job{Index: 1, Run: "r", Layer: "l"}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a:l b:l]" {
		t.Errorf("order = %v", order)
	}
}

func TestRegistryClosesPartialSetOnError(t *testing.T) {
	closed := false
	reg := Registry{
		func(job Job, set *SinkSet) error {
			set.OnClose(func() error { closed = true; return nil })
			return nil
		},
		func(job Job, set *SinkSet) error { return errors.New("wiring failed") },
	}
	if _, err := reg.NewSinkSet(Job{}); err == nil {
		t.Fatal("factory error swallowed")
	}
	if !closed {
		t.Error("partial set not closed")
	}
}

func TestCSVTraceWritesPerJobFiles(t *testing.T) {
	dir := t.TempDir()
	reg := Registry{CSVTrace(dir, DRAMRead, SRAMReadIfmap)}
	set, err := reg.NewSinkSet(Job{Index: 0, Run: "run/1", Layer: "conv:2"})
	if err != nil {
		t.Fatal(err)
	}
	set.Tap(DRAMRead, nil).Consume(5, []int64{1, 2, 3})
	if err := set.Finish(); err != nil {
		t.Fatal(err)
	}
	set.Close()

	data, err := os.ReadFile(filepath.Join(dir, "run_1_conv_2_dram_read.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "5, 1, 2, 3\n" {
		t.Errorf("trace content %q", data)
	}
	// The stream with no events still yields an (empty) file.
	if _, err := os.Stat(filepath.Join(dir, "run_1_conv_2_sram_read_ifmap.csv")); err != nil {
		t.Error(err)
	}
}

func TestCSVTraceUnusableDir(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := Registry{CSVTrace(filepath.Join(blocked, "sub"))}
	if _, err := reg.NewSinkSet(Job{Run: "r", Layer: "l"}); err == nil {
		t.Error("unusable trace dir accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b/c:d.e-f_g"); got != "a_b_c_d.e-f_g" {
		t.Errorf("sanitize = %q", got)
	}
}
