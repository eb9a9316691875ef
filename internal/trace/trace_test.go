package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestStats(t *testing.T) {
	s := NewStats()
	if s.Span() != 0 {
		t.Error("empty stats should report zero span")
	}
	s.Consume(10, []int64{1, 2, 3})
	s.Consume(11, nil) // empty batches are ignored
	s.Consume(12, []int64{4})
	s.Consume(19, []int64{5, 6})
	if s.Events != 3 {
		t.Errorf("Events = %d, want 3", s.Events)
	}
	if s.Accesses != 6 {
		t.Errorf("Accesses = %d, want 6", s.Accesses)
	}
	if s.FirstCycle != 10 || s.LastCycle != 19 {
		t.Errorf("cycle bounds = [%d,%d]", s.FirstCycle, s.LastCycle)
	}
	if s.Span() != 10 {
		t.Errorf("Span = %d, want 10", s.Span())
	}
	if s.MaxPerCycle != 3 {
		t.Errorf("MaxPerCycle = %d, want 3", s.MaxPerCycle)
	}
}

func TestTeeAndNull(t *testing.T) {
	a, b := NewStats(), NewStats()
	tee := Tee(a, b, Null)
	tee.Consume(1, []int64{7, 8})
	if a.Accesses != 2 || b.Accesses != 2 {
		t.Errorf("tee delivered %d/%d accesses", a.Accesses, b.Accesses)
	}
}

func TestTeeDropsNils(t *testing.T) {
	if c := Tee(); c != nil {
		t.Errorf("Tee() = %v, want nil", c)
	}
	if c := Tee(nil, nil); c != nil {
		t.Errorf("Tee(nil, nil) = %v, want nil", c)
	}
	s := NewStats()
	if c := Tee(nil, s, nil); c != Consumer(s) {
		t.Errorf("Tee with one live consumer should return it directly, got %v", c)
	}
	tee := Tee(nil, s, NewStats())
	tee.Consume(0, []int64{1})
	if s.Accesses != 1 {
		t.Errorf("tee with interleaved nils delivered %d accesses, want 1", s.Accesses)
	}
}

func TestRecorderCopiesBatches(t *testing.T) {
	r := &Recorder{}
	buf := []int64{1, 2}
	r.Consume(0, buf)
	buf[0] = 99 // producer reuses its buffer
	r.Consume(1, buf)
	if r.Entries[0].Addrs[0] != 1 {
		t.Error("Recorder aliased the producer's buffer")
	}
	if r.Accesses() != 4 {
		t.Errorf("Accesses = %d", r.Accesses())
	}
	if got := r.Addresses(); !reflect.DeepEqual(got, []int64{1, 2, 99, 2}) {
		t.Errorf("Addresses = %v", got)
	}
	if r.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", r.Distinct())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	w.Consume(0, []int64{5})
	w.Consume(3, []int64{1, 2, 3})
	w.Consume(4, nil)
	w.Consume(10, []int64{42})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rec, err := ParseCSV(&buf)
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	want := []Entry{
		{0, []int64{5}},
		{3, []int64{1, 2, 3}},
		{10, []int64{42}},
	}
	if !reflect.DeepEqual(rec.Entries, want) {
		t.Errorf("entries = %+v, want %+v", rec.Entries, want)
	}
}

func TestCSVRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		in := &Recorder{}
		cycle := int64(0)
		for i := 0; i < 1+rng.Intn(20); i++ {
			cycle += int64(rng.Intn(5))
			n := 1 + rng.Intn(6)
			addrs := make([]int64, n)
			for j := range addrs {
				addrs[j] = int64(rng.Intn(1000))
			}
			in.Consume(cycle, addrs)
			cycle++
		}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		for _, e := range in.Entries {
			w.Consume(e.Cycle, e.Addrs)
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out, err := ParseCSV(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out.Entries, in.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"1, two\n",
		"notanumber\n",
		"7\n", // cycle with no addresses
	}
	for _, in := range cases {
		if _, err := ParseCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ParseCSV accepted %q", in)
		}
	}
	// Blank lines are fine.
	rec, err := ParseCSV(strings.NewReader("\n1, 2\n\n"))
	if err != nil || len(rec.Entries) != 1 {
		t.Errorf("blank-line parse: %v, %d entries", err, len(rec.Entries))
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestCSVWriterPropagatesError(t *testing.T) {
	w := NewCSVWriter(failingWriter{})
	for i := 0; i < 20_000; i++ { // exceed the internal buffer to force a write
		w.Consume(int64(i), []int64{1, 2, 3, 4, 5, 6, 7, 8})
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush did not report the write error")
	}
}

func TestBandwidthMeter(t *testing.T) {
	b := NewBandwidthMeter(10, 2)
	if b.AvgBytesPerCycle() != 0 || b.PeakBytesPerCycle() != 0 {
		t.Error("empty meter should report zero")
	}
	b.Consume(0, []int64{1, 2, 3, 4, 5}) // window 0: 5 words
	b.Add(9, 5)                          // window 0: 10 words total
	b.Add(10, 2)                         // window 1: 2 words
	b.Add(25, 8)                         // window 2: 8 words
	if b.TotalWords() != 20 {
		t.Errorf("TotalWords = %d", b.TotalWords())
	}
	if b.TotalBytes() != 40 {
		t.Errorf("TotalBytes = %d", b.TotalBytes())
	}
	if b.Span() != 26 {
		t.Errorf("Span = %d, want 26", b.Span())
	}
	if got := b.AvgBytesPerCycle(); got != 40.0/26.0 {
		t.Errorf("AvgBytesPerCycle = %v", got)
	}
	// Peak window is window 0 with 10 words = 20 bytes over 10 cycles.
	if got := b.PeakBytesPerCycle(); got != 2.0 {
		t.Errorf("PeakBytesPerCycle = %v, want 2", got)
	}
	if len(b.Profile()) != 3 {
		t.Errorf("Windows = %d, want 3", len(b.Profile()))
	}
	// Zero/negative additions are ignored.
	b.Add(30, 0)
	b.Add(30, -5)
	if b.TotalWords() != 20 {
		t.Error("non-positive Add changed the meter")
	}
}

// TestBandwidthMeterOutOfOrder: the meter keeps the window being filled
// outside its map, so cycles that jump back and forth between windows — and
// reads in the middle of a window — must still land every word in its own
// window.
func TestBandwidthMeterOutOfOrder(t *testing.T) {
	b := NewBandwidthMeter(10, 1)
	b.Add(25, 3) // window 2
	b.Add(5, 1)  // back to window 0
	b.Add(27, 4) // window 2 again
	if got := b.PeakBytesPerCycle(); got != 0.7 {
		t.Errorf("mid-stream peak = %v, want 0.7", got)
	}
	b.Add(29, 1) // still window 2, after a read settled it
	b.Add(-3, 2) // negative cycles truncate toward window 0
	b.Add(11, 6) // window 1
	want := []ProfilePoint{{0, 3}, {10, 6}, {20, 8}}
	if got := b.Profile(); !reflect.DeepEqual(got, want) {
		t.Errorf("Profile = %v, want %v", got, want)
	}
	if len(b.Profile()) != 3 || b.PeakBytesPerCycle() != 0.8 || b.TotalWords() != 17 || b.Span() != 33 {
		t.Errorf("windows %d peak %v total %d span %d",
			len(b.Profile()), b.PeakBytesPerCycle(), b.TotalWords(), b.Span())
	}
}

// TestBandwidthMeterAddSweep: a sweep add leaves the meter exactly as
// times Adds of the same words on consecutive cycles, whatever window it
// starts in, however many windows it spans, and after an out-of-order Add.
func TestBandwidthMeterAddSweep(t *testing.T) {
	type add struct{ cycle, words int64 }
	for _, tc := range []struct {
		name                string
		before              []add
		cycle, words, times int64
	}{
		{name: "mid-window", cycle: 13, words: 3, times: 5},
		{name: "shorter than a window", cycle: 21, words: 2, times: 4},
		{name: "window aligned", cycle: 20, words: 7, times: 10},
		{name: "three windows and more", cycle: 7, words: 5, times: 38},
		{name: "after earlier traffic", before: []add{{3, 4}, {12, 1}}, cycle: 12, words: 2, times: 21},
		{name: "after an out-of-order add", before: []add{{45, 2}, {8, 3}}, cycle: 30, words: 1, times: 27},
		{name: "back into an earlier window", before: []add{{95, 2}}, cycle: 2, words: 4, times: 12},
		{name: "one call", cycle: 19, words: 6, times: 1},
		{name: "negative cycles", cycle: -23, words: 3, times: 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := NewBandwidthMeter(10, 2), NewBandwidthMeter(10, 2)
			for _, a := range tc.before {
				got.Add(a.cycle, a.words)
				want.Add(a.cycle, a.words)
			}
			got.AddSweep(tc.cycle, tc.words, tc.times)
			for j := range tc.times {
				want.Add(tc.cycle+j, tc.words)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sweep add left %+v, Adds %+v", got, want)
			}
			if !reflect.DeepEqual(got.Profile(), want.Profile()) || got.Span() != want.Span() ||
				got.PeakBytesPerCycle() != want.PeakBytesPerCycle() {
				t.Errorf("profile %v span %d, want %v and %d", got.Profile(), got.Span(), want.Profile(), want.Span())
			}
		})
	}
}

// TestSweepUnroll: a sweep unrolls into its calls on consecutive cycles,
// every base moved by j·step and nothing else, and leaves its runs as
// they were.
func TestSweepUnroll(t *testing.T) {
	runs := []Run{{Base: 10, Stride: 3, Count: 4}, {Base: 100, Stride: -1, Count: 2}}
	rec := &callRecorder{}
	Sweep{Cycle: 7, Runs: runs, Step: -5, Times: 3}.Unroll(rec)
	want := []recordedCall{
		{7, []Run{{10, 3, 4}, {100, -1, 2}}},
		{8, []Run{{5, 3, 4}, {95, -1, 2}}},
		{9, []Run{{0, 3, 4}, {90, -1, 2}}},
	}
	if !reflect.DeepEqual(rec.calls, want) {
		t.Errorf("unrolled %v, want %v", rec.calls, want)
	}
	if runs[0].Base != 10 || runs[1].Base != 100 {
		t.Errorf("Unroll moved the sweep's own runs: %v", runs)
	}
}

type recordedCall struct {
	cycle int64
	runs  []Run
}

type callRecorder struct{ calls []recordedCall }

func (c *callRecorder) ConsumeRuns(cycle int64, runs []Run) {
	c.calls = append(c.calls, recordedCall{cycle, append([]Run(nil), runs...)})
}

// TestBandwidthMeterRevisitedWindow: a window that traffic returns to after
// a later one was filled is one point of the profile, holding all its
// words, and the peak counts them together.
func TestBandwidthMeterRevisitedWindow(t *testing.T) {
	b := NewBandwidthMeter(10, 1)
	b.Add(5, 1)  // window 0
	b.Add(25, 3) // window 2
	b.Add(7, 4)  // window 0 again
	b.Add(31, 1) // window 3
	want := []ProfilePoint{{0, 5}, {20, 3}, {30, 1}}
	if got := b.Profile(); !reflect.DeepEqual(got, want) {
		t.Errorf("Profile = %v, want %v", got, want)
	}
	if got := b.PeakBytesPerCycle(); got != 0.5 {
		t.Errorf("PeakBytesPerCycle = %v, want 0.5", got)
	}
}

// TestBandwidthMeterProfileMatchesWindows: over long random streams —
// mostly in cycle order, with gaps and reads in mid-window, and in half
// the trials sometimes back to an earlier window — the profile and the
// peak are exactly the per-window sums of every Add.
func TestBandwidthMeterProfileMatchesWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		b := NewBandwidthMeter(int64(1+rng.Intn(16)), 1)
		want := map[int64]int64{}
		cycle := int64(rng.Intn(100))
		for i := 0; i < 20000; i++ {
			switch r := rng.Intn(100); {
			case r < 2 && trial%2 == 0:
				cycle = int64(rng.Intn(int(cycle) + 1)) // back in time
			case r < 4:
				b.PeakBytesPerCycle() // settles the open window
			case r < 10:
				cycle += int64(rng.Intn(500)) // a gap
			default:
				cycle += int64(rng.Intn(3))
			}
			words := int64(1 + rng.Intn(9))
			b.Add(cycle, words)
			want[cycle/b.WindowCycles*b.WindowCycles] += words
		}
		var peak int64
		points := make([]ProfilePoint, 0, len(want))
		for start, words := range want {
			points = append(points, ProfilePoint{start, words})
			peak = max(peak, words)
		}
		slices.SortFunc(points, func(x, y ProfilePoint) int { return int(x.StartCycle - y.StartCycle) })
		if got := b.Profile(); !reflect.DeepEqual(got, points) {
			t.Fatalf("trial %d: profile of %d points differs from the %d window sums", trial, len(got), len(points))
		}
		if got := b.PeakBytesPerCycle(); got != float64(peak)/float64(b.WindowCycles) {
			t.Fatalf("trial %d: peak %v, want %v", trial, got, float64(peak)/float64(b.WindowCycles))
		}
	}
}

func TestBandwidthMeterDefaults(t *testing.T) {
	b := NewBandwidthMeter(0, 0)
	if b.WindowCycles != 1 || b.WordBytes != 1 {
		t.Errorf("defaults = %d/%d, want 1/1", b.WindowCycles, b.WordBytes)
	}
}

// TestBandwidthMeterPeakAtLeastAvg: the peak windowed demand can never be
// below the overall average when windows tile the span.
func TestBandwidthMeterPeakAtLeastAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		b := NewBandwidthMeter(int64(1+rng.Intn(20)), int64(1+rng.Intn(4)))
		for i := 0; i < 100; i++ {
			b.Add(int64(rng.Intn(500)), int64(1+rng.Intn(10)))
		}
		if b.PeakBytesPerCycle() < b.AvgBytesPerCycle()-1e-9 {
			t.Fatalf("peak %v < avg %v", b.PeakBytesPerCycle(), b.AvgBytesPerCycle())
		}
	}
}

func TestConsumerFunc(t *testing.T) {
	var got int64
	c := ConsumerFunc(func(cycle int64, addrs []int64) { got = cycle + int64(len(addrs)) })
	c.Consume(5, []int64{1, 2})
	if got != 7 {
		t.Errorf("got %d", got)
	}
}

func TestScanCSVStreams(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	w.Consume(1, []int64{10, 11})
	w.Consume(5, []int64{12})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var events int
	var total int64
	err := ScanCSV(&buf, ConsumerFunc(func(cycle int64, addrs []int64) {
		events++
		total += int64(len(addrs))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if events != 2 || total != 3 {
		t.Errorf("events/total = %d/%d", events, total)
	}
	if err := ScanCSV(strings.NewReader("7\n"), Null); err == nil {
		t.Error("row without addresses accepted")
	}
}
