package trace

import (
	"bytes"
	"io"
	"math"
	"math/big"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

func TestRunAccessors(t *testing.T) {
	r := Run{Base: 10, Stride: 3, Count: 4}
	if got := r.Last(); got != 19 {
		t.Errorf("Last() = %d", got)
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, []int64{10, 13, 16, 19}) {
		t.Errorf("AppendTo = %v", got)
	}
	if got := RunWords([]Run{r, {Base: 0, Stride: 0, Count: 2}}); got != 6 {
		t.Errorf("RunWords = %d", got)
	}
}

func TestAppendRunCoalescing(t *testing.T) {
	cases := []struct {
		name string
		adds [][3]int64 // base, stride, count
		want []Run
	}{
		{"noop", [][3]int64{{5, 1, 0}}, nil},
		{"single", [][3]int64{{5, 1, 3}}, []Run{{5, 1, 3}}},
		{"two singletons coalesce", [][3]int64{{5, 0, 1}, {9, 0, 1}},
			[]Run{{5, 4, 2}}},
		{"singleton then continuing segment", [][3]int64{{5, 0, 1}, {7, 2, 3}},
			[]Run{{5, 2, 4}}},
		{"segment then continuing singleton", [][3]int64{{5, 2, 3}, {11, 0, 1}},
			[]Run{{5, 2, 4}}},
		{"matching stride continuation", [][3]int64{{5, 2, 3}, {11, 2, 2}},
			[]Run{{5, 2, 5}}},
		{"stride mismatch splits", [][3]int64{{5, 2, 3}, {11, 3, 2}},
			[]Run{{5, 2, 3}, {11, 3, 2}}},
		{"base gap splits", [][3]int64{{5, 2, 3}, {12, 2, 2}},
			[]Run{{5, 2, 3}, {12, 2, 2}}},
		{"singleton chain builds one run", [][3]int64{{5, 0, 1}, {6, 0, 1}, {7, 0, 1}, {8, 0, 1}},
			[]Run{{5, 1, 4}}},
		{"negative stride chain", [][3]int64{{9, 0, 1}, {7, 0, 1}, {5, 0, 1}},
			[]Run{{9, -2, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs []Run
			for _, a := range tc.adds {
				runs = AppendRun(runs, a[0], a[1], a[2])
			}
			if !reflect.DeepEqual(runs, tc.want) {
				t.Errorf("got %v, want %v", runs, tc.want)
			}
			// Coalescing must never change the expansion.
			var want []int64
			for _, a := range tc.adds {
				want = Run{Base: a[0], Stride: a[1], Count: a[2]}.AppendTo(want)
			}
			if got := ExpandRuns(runs, nil); !reflect.DeepEqual(got, want) &&
				!(len(got) == 0 && len(want) == 0) {
				t.Errorf("expansion changed: got %v, want %v", got, want)
			}
		})
	}
}

func TestAppendAddrRecompression(t *testing.T) {
	var runs []Run
	for _, a := range []int64{100, 104, 108, 112, 50, 51, 52, 7} {
		runs = AppendAddr(runs, a)
	}
	want := []Run{{100, 4, 4}, {50, 1, 3}, {7, 0, 1}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("got %v, want %v", runs, want)
	}
}

// countingConsumer is element-only: it must be reached via the adapter.
type countingConsumer struct {
	cycles []int64
	addrs  [][]int64
}

func (c *countingConsumer) Consume(cycle int64, addrs []int64) {
	cp := make([]int64, len(addrs))
	copy(cp, addrs)
	c.cycles = append(c.cycles, cycle)
	c.addrs = append(c.addrs, cp)
}

func TestRunsAdapter(t *testing.T) {
	// Nil consumer: discarding run path.
	Runs(nil).ConsumeRuns(1, []Run{{1, 1, 3}})

	// Native RunConsumer passes through without wrapping.
	s := NewStats()
	if rc := Runs(s); rc != RunConsumer(s) {
		t.Errorf("native RunConsumer was wrapped: %T", rc)
	}

	// Legacy consumer sees the expanded batch.
	cc := &countingConsumer{}
	rc := Runs(cc)
	rc.ConsumeRuns(7, []Run{{10, 2, 3}, {100, 0, 1}})
	rc.ConsumeRuns(8, []Run{{5, -1, 2}})
	if !reflect.DeepEqual(cc.cycles, []int64{7, 8}) {
		t.Fatalf("cycles = %v", cc.cycles)
	}
	if !reflect.DeepEqual(cc.addrs[0], []int64{10, 12, 14, 100}) ||
		!reflect.DeepEqual(cc.addrs[1], []int64{5, 4}) {
		t.Errorf("addrs = %v", cc.addrs)
	}
}

func TestTeeRunPath(t *testing.T) {
	native := &Recorder{}
	legacy1 := &countingConsumer{}
	legacy2 := &countingConsumer{}
	tee := Tee(nil, native, legacy1, legacy2)
	rc, ok := tee.(RunConsumer)
	if !ok {
		t.Fatalf("Tee result is not run-aware: %T", tee)
	}
	rc.ConsumeRuns(3, []Run{{20, 5, 3}})
	want := []int64{20, 25, 30}
	if !reflect.DeepEqual(native.Addresses(), want) {
		t.Errorf("native member: %v", native.Addresses())
	}
	for i, l := range []*countingConsumer{legacy1, legacy2} {
		if len(l.addrs) != 1 || !reflect.DeepEqual(l.addrs[0], want) {
			t.Errorf("legacy member %d: %v", i, l.addrs)
		}
	}

	// Element path still fans out unchanged.
	tee.Consume(4, []int64{1, 2})
	if len(legacy1.addrs) != 2 || !reflect.DeepEqual(legacy1.addrs[1], []int64{1, 2}) {
		t.Errorf("element fan-out: %v", legacy1.addrs)
	}
}

// TestConsumeAddrsConcurrent: the shim's pooled run lists are per call, so
// consumers fed from several goroutines at once each record exactly their
// own batches.
func TestConsumeAddrsConcurrent(t *testing.T) {
	const workers, batches = 8, 500
	recs := make([]Recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				recs[w].Consume(int64(i), []int64{int64(w), int64(w + i), int64(w + 2*i), 7})
			}
		}(w)
	}
	wg.Wait()
	for w := range recs {
		for i, e := range recs[w].Entries {
			if want := []int64{int64(w), int64(w + i), int64(w + 2*i), 7}; e.Cycle != int64(i) || !reflect.DeepEqual(e.Addrs, want) {
				t.Fatalf("worker %d batch %d recorded %+v, want %v", w, i, e, want)
			}
		}
		if len(recs[w].Entries) != batches {
			t.Errorf("worker %d recorded %d batches, want %d", w, len(recs[w].Entries), batches)
		}
	}
}

// TestStatsConsumeRunsMatchesConsume: the run body counts what a
// per-address reference counts over the expanded batches.
func TestStatsConsumeRunsMatchesConsume(t *testing.T) {
	batches := []struct {
		cycle int64
		runs  []Run
	}{
		{5, []Run{{10, 1, 4}}},
		{6, nil},
		{7, []Run{{0, 0, 1}, {50, 2, 6}}},
		{9, []Run{{3, -1, 2}}},
	}
	got, want := NewStats(), Stats{FirstCycle: -1}
	for _, b := range batches {
		got.ConsumeRuns(b.cycle, b.runs)
		addrs := ExpandRuns(b.runs, nil)
		if len(addrs) == 0 {
			continue
		}
		want.Events++
		want.Accesses += int64(len(addrs))
		if want.FirstCycle < 0 {
			want.FirstCycle = b.cycle
		}
		want.LastCycle = max(want.LastCycle, b.cycle)
		want.MaxPerCycle = max(want.MaxPerCycle, len(addrs))
	}
	if *got != want {
		t.Errorf("run path %+v != per-address reference %+v", *got, want)
	}
}

func TestRecorderConsumeRuns(t *testing.T) {
	r := &Recorder{}
	r.ConsumeRuns(2, []Run{{7, 3, 3}})
	r.ConsumeRuns(3, nil)
	if len(r.Entries) != 1 || r.Entries[0].Cycle != 2 ||
		!reflect.DeepEqual(r.Entries[0].Addrs, []int64{7, 10, 13}) {
		t.Errorf("entries = %+v", r.Entries)
	}
}

// refCSVRow is the per-address serializer the run path must match: one
// strconv.AppendInt per value, nothing for an empty batch.
func refCSVRow(dst []byte, cycle int64, addrs []int64) []byte {
	if len(addrs) == 0 {
		return dst
	}
	dst = strconv.AppendInt(dst, cycle, 10)
	for _, a := range addrs {
		dst = strconv.AppendInt(append(dst, ", "...), a, 10)
	}
	return append(dst, '\n')
}

func TestCSVWriterRunPathByteIdentical(t *testing.T) {
	batches := []struct {
		cycle int64
		runs  []Run
	}{
		{0, []Run{{1, 1, 5}}},
		{1, []Run{{-4, 2, 3}, {1000000, 0, 1}}},
		{2, nil}, // empty batches emit nothing
		{17, []Run{{9, -3, 4}}},
		{18, []Run{{97, 1, 6}}},     // digit growth: 99 -> 100
		{19, []Run{{995, 131, 4}}},  // multi-digit carries
		{20, []Run{{0, 999999, 3}}}, // large stride, repeated growth
		{21, []Run{{100, -1, 4}}},   // negative stride, digit shrink path
		{22, []Run{{5, 0, 3}, {9, 1, 2}, {999, 1, 2}}},
		{23, []Run{{math.MaxInt64 - 10, 5, 3}, {math.MinInt64, 1, 2}}}, // the int64 edges
		{24, []Run{{math.MaxInt64, -math.MaxInt64, 2}}},                // MaxInt64, then 0
	}
	var got bytes.Buffer
	w := NewCSVWriter(&got)
	var want []byte
	for _, b := range batches {
		w.ConsumeRuns(b.cycle, b.runs)
		want = refCSVRow(want, b.cycle, ExpandRuns(b.runs, nil))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("run path:\n%s\nper-address reference:\n%s", got.Bytes(), want)
	}
	// Round-trips through the parser as well.
	rec, err := ParseCSV(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accesses() != 44 {
		t.Errorf("parsed %d accesses, want 44", rec.Accesses())
	}
}

// exact reports whether every address of r, computed without wrapping,
// fits in an int64 and is what AppendTo expands.
func exact(r Run) bool {
	for i, a := range r.AppendTo(nil) {
		v := new(big.Int).Mul(big.NewInt(int64(i)), big.NewInt(r.Stride))
		if v.Add(v, big.NewInt(r.Base)); !v.IsInt64() || v.Int64() != a {
			return false
		}
	}
	return true
}

// TestRunsNeverWrap: a step that does not fit in an int64 never coalesces,
// so every run is an exact progression, and the CSV serializer, which adds
// strides in decimal, writes each address as itself.
func TestRunsNeverWrap(t *testing.T) {
	const hi, lo = math.MaxInt64, math.MinInt64
	for _, tc := range []struct {
		name string
		adds [][3]int64 // base, stride, count
	}{
		{"two singletons up", [][3]int64{{hi, 0, 1}, {lo, 0, 1}}},
		{"two singletons down", [][3]int64{{lo, 0, 1}, {hi, 0, 1}}},
		{"singleton then segment", [][3]int64{{hi, 0, 1}, {lo, 1, 3}}},
		{"run then singleton", [][3]int64{{hi - 1, 1, 2}, {lo, 0, 1}}},
		{"run then segment", [][3]int64{{hi - 1, 1, 2}, {lo, 1, 2}}},
		{"descending run then singleton", [][3]int64{{lo + 1, -1, 2}, {hi, 0, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs []Run
			var addrs []int64
			for _, a := range tc.adds {
				runs = AppendRun(runs, a[0], a[1], a[2])
				addrs = Run{Base: a[0], Stride: a[1], Count: a[2]}.AppendTo(addrs)
			}
			for _, r := range runs {
				if !exact(r) {
					t.Errorf("run %+v wraps int64", r)
				}
			}
			if got := ExpandRuns(runs, nil); !reflect.DeepEqual(got, addrs) {
				t.Errorf("expansion %v, want %v", got, addrs)
			}
			var csv bytes.Buffer
			w := NewCSVWriter(&csv)
			w.ConsumeRuns(0, runs)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := refCSVRow(nil, 0, addrs); !bytes.Equal(csv.Bytes(), want) {
				t.Errorf("CSV row %q, want %q", csv.Bytes(), want)
			}
		})
	}
	// The same pair through the element entry point.
	var csv bytes.Buffer
	w := NewCSVWriter(&csv)
	w.Consume(0, []int64{hi, lo})
	if err := w.Flush(); err != nil || csv.String() != "0, 9223372036854775807, -9223372036854775808\n" {
		t.Errorf("Consume wrote %q (%v)", csv.String(), err)
	}
}

func TestNullIsRunAware(t *testing.T) {
	rc, ok := Null.(RunConsumer)
	if !ok {
		t.Fatalf("Null is not a RunConsumer: %T", Null)
	}
	rc.ConsumeRuns(0, []Run{{1, 1, 1}})
	Null.Consume(0, []int64{1})
}

// blockAware is a minimal run consumer with the BlockConsumer capability.
type blockAware struct {
	Stats
	begins int
}

func (b *blockAware) BeginBlock(Block) bool { b.begins++; return true }
func (b *blockAware) ConsumeSweep(s Sweep)  { s.Unroll(b) }
func (b *blockAware) EndBlock()             {}

// TestBlockConsumerHiddenByChain: the bracket reaches a consumer only when
// it is the whole chain. A Tee, the element-path adapter and nil all resolve
// to run consumers without the capability, so whatever else is in the chain
// sees every run.
func TestBlockConsumerHiddenByChain(t *testing.T) {
	bare := &blockAware{}
	if b, ok := Runs(bare).(BlockConsumer); !ok || !b.BeginBlock(Block{N: 1, Words: 1}) || bare.begins != 1 {
		t.Error("a bare BlockConsumer was not offered the block")
	}
	if got := Tee(nil, bare, nil); got != Consumer(bare) {
		t.Error("Tee with one survivor must return it unchanged")
	}
	for name, c := range map[string]Consumer{
		"tee":     Tee(&blockAware{}, &Recorder{}),
		"tee-csv": Tee(NewCSVWriter(io.Discard), &blockAware{}),
		"adapter": ConsumerFunc((&blockAware{}).Consume),
		"nil":     nil,
	} {
		if _, ok := Runs(c).(BlockConsumer); ok {
			t.Errorf("%s: chain exposes BlockConsumer", name)
		}
	}
}
