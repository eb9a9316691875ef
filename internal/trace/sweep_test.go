package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// logEntry is one event a loggingConsumer saw: a call, or a sweep taken
// whole.
type logEntry struct {
	who   string
	sweep bool
	cycle int64
	base  int64
	times int64
}

// loggingConsumer appends what it sees to a log shared with other members
// of a tee, so the order across members shows.
type loggingConsumer struct {
	name string
	log  *[]logEntry
}

func (c *loggingConsumer) Consume(cycle int64, addrs []int64) { ConsumeAddrs(c, cycle, addrs) }

func (c *loggingConsumer) ConsumeRuns(cycle int64, runs []Run) {
	*c.log = append(*c.log, logEntry{who: c.name, cycle: cycle, base: runs[0].Base, times: 1})
}

// sweepLogger takes sweeps whole.
type sweepLogger struct{ loggingConsumer }

func (c *sweepLogger) ConsumeSweep(s Sweep) {
	*c.log = append(*c.log, logEntry{who: c.name, sweep: true, cycle: s.Cycle, base: s.Runs[0].Base, times: s.Times})
}

// TestSweepFeed: Feed hands a sweep whole to a consumer that takes sweeps
// and unrolls it for any other.
func TestSweepFeed(t *testing.T) {
	var log []logEntry
	s := Sweep{Cycle: 5, Runs: []Run{{Base: 10, Stride: 1, Count: 2}}, Step: 2, Times: 3}
	s.Feed(&sweepLogger{loggingConsumer{"whole", &log}})
	s.Feed(&loggingConsumer{"calls", &log})
	want := []logEntry{
		{"whole", true, 5, 10, 3},
		{"calls", false, 5, 10, 1}, {"calls", false, 6, 12, 1}, {"calls", false, 7, 14, 1},
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("fed %v, want %v", log, want)
	}
}

// TestTeeSweeps: a tee takes a sweep whole, member by member, only when
// every member takes sweeps and none appears twice; otherwise every member
// sees every call, in member order. Nested tees flatten into one member
// list, so the rules apply across them.
func TestTeeSweeps(t *testing.T) {
	s := Sweep{Cycle: 5, Runs: []Run{{Base: 10, Stride: 1, Count: 2}}, Step: 1, Times: 2}
	var log []logEntry
	a := &sweepLogger{loggingConsumer{"a", &log}}
	b := &sweepLogger{loggingConsumer{"b", &log}}
	plain := &loggingConsumer{"plain", &log}
	calls := func(names ...string) []logEntry {
		var want []logEntry
		for j := int64(0); j < s.Times; j++ {
			for _, n := range names {
				want = append(want, logEntry{n, false, s.Cycle + j, 10 + j, 1})
			}
		}
		return want
	}
	for _, tc := range []struct {
		name string
		tee  Consumer
		want []logEntry
	}{
		{"all take sweeps", Tee(a, b), []logEntry{{"a", true, 5, 10, 2}, {"b", true, 5, 10, 2}}},
		{"nested, all take sweeps", Tee(Tee(a, nil, b), nil), []logEntry{{"a", true, 5, 10, 2}, {"b", true, 5, 10, 2}}},
		{"a member takes no sweeps", Tee(a, plain, b), calls("a", "plain", "b")},
		{"an element-only member", Tee(a, ConsumerFunc(func(int64, []int64) {})), calls("a")},
		{"a member twice", Tee(a, b, a), calls("a", "b", "a")},
		{"a member twice across nested tees", Tee(Tee(a, b), Tee(b, nil)), calls("a", "b", "b")},
	} {
		log = nil
		s.Feed(Runs(tc.tee))
		if !reflect.DeepEqual(log, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, log, tc.want)
		}
	}
	if tt, ok := Tee(Tee(a, b), plain, Tee(b, a)).(*tee); !ok || len(tt.members) != 5 {
		t.Errorf("nested tees not flattened into one member list: %#v", tt)
	}
}

// uncomparable takes sweeps but has no identity: a tee holding it must not
// compare it (which panics), and unrolls instead.
type uncomparable []int

func (u uncomparable) Consume(cycle int64, addrs []int64) { ConsumeAddrs(u, cycle, addrs) }
func (uncomparable) ConsumeRuns(int64, []Run)             {}
func (uncomparable) ConsumeSweep(Sweep)                   {}

func TestTeeUncomparableMember(t *testing.T) {
	var log []logEntry
	tt := Tee(uncomparable{1}, &sweepLogger{loggingConsumer{"a", &log}}, uncomparable{2})
	Sweep{Cycle: 0, Runs: []Run{{Base: 0, Stride: 1, Count: 1}}, Step: 1, Times: 2}.Feed(Runs(tt))
	if len(log) != 2 || log[0].sweep {
		t.Errorf("tee with a member without identity: %v, want two calls", log)
	}
}

// TestStallSweepMatchesCalls: a sweep taken whole leaves the analyzer
// exactly as its calls one by one: the same cumulative demand, the same
// bits of maxLag — so the same StallCycles — and the same intervals, over
// link bandwidths that do and do not divide the call's words, calls whose
// words equal the bandwidth or miss it by an ulp (the lag then moves by
// rounding alone),
// cumulative demand near 2^40, cycles that step back between sweeps, and
// interval recording on and off.
func TestStallSweepMatchesCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	// A bandwidth a few ulps of the lag off a call's words gives the lags a
	// slope below their rounding, and these sweeps computed lags whose
	// maximum is inside: only the calls one by one know it.
	for _, c := range []struct {
		words, cum, cycle, times int64
		bw                       float64
	}{
		{3, 25769811327, 8589934590, 29, 3.0000008794535176},
		{3, 6442450828, 2147483627, 28, 2.99999997321342},
		{5, 85899354181, 17179869181, 28, 5.000000481666683},
		{3, 103079312373, 34359738365, 10, 3.000002831015331},
		{7, 123140904869594, 17592186044409, 13, 6.9997500344035295},
	} {
		whole, calls := NewStallAnalyzer(c.bw), NewStallAnalyzer(c.bw)
		whole.cumWords, calls.cumWords = c.cum, c.cum
		s := Sweep{Cycle: c.cycle, Runs: []Run{{Base: 0, Stride: 1, Count: c.words}}, Step: 1, Times: c.times}
		s.Feed(whole)
		s.Unroll(calls)
		if math.Float64bits(whole.maxLag) != math.Float64bits(calls.maxLag) {
			t.Errorf("%+v: maxLag %v, calls give %v", c, whole.maxLag, calls.maxLag)
		}
	}
	for _, bw := range []float64{4, 3, 1, 0.7, 1.0 / 3, math.Nextafter(3, 4), math.Nextafter(4, 0)} {
		for _, window := range []int64{0, 1, 64} {
			for _, far := range []bool{false, true} {
				name := fmt.Sprintf("bw %v window %d far %v", bw, window, far)
				whole, calls := NewStallAnalyzer(bw), NewStallAnalyzer(bw)
				if window > 0 {
					whole.RecordIntervals(window)
					calls.RecordIntervals(window)
				}
				var cycle int64
				if far {
					// 2^40 words delivered, the link about level with them.
					whole.cumWords, calls.cumWords = 1<<40, 1<<40
					cycle = int64(float64(int64(1)<<40)/bw) - 50 + rng.Int63n(100)
				}
				for k := 0; k < 400; k++ {
					w := 1 + rng.Int63n(40)
					switch rng.Intn(4) {
					case 0: // one call's words level with the link
						w = max(1, int64(math.Round(bw)))
					case 1:
						w = max(1, int64(math.Round(3*bw)))
					}
					s := Sweep{Cycle: cycle, Runs: []Run{{Base: 7, Stride: 3, Count: w}}, Step: 1, Times: 1 + rng.Int63n(300)}
					s.Feed(whole)
					s.Unroll(calls)
					if whole.cumWords != calls.cumWords || math.Float64bits(whole.maxLag) != math.Float64bits(calls.maxLag) {
						t.Fatalf("%s, sweep %d %+v: cumWords %d maxLag %v (%#x), calls give %d %v (%#x)", name, k, s,
							whole.cumWords, whole.maxLag, math.Float64bits(whole.maxLag),
							calls.cumWords, calls.maxLag, math.Float64bits(calls.maxLag))
					}
					cycle += s.Times - 40 + rng.Int63n(80)
				}
				if whole.StallCycles() != calls.StallCycles() || !reflect.DeepEqual(whole.Intervals(), calls.Intervals()) {
					t.Errorf("%s: stall %d, intervals %v; calls give %d, %v", name,
						whole.StallCycles(), whole.Intervals(), calls.StallCycles(), calls.Intervals())
				}
			}
		}
	}
}
