package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scalesim/internal/trace"
)

// The percentile rule: report the highest tail percentile that still has
// ten samples beyond it, and none below a hundred samples.
func TestTopPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{15, 0, false}, {99, 0, false}, {100, 0.90, true}, {199, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true},
		{6000, 0.99, true}, {10000, 0.999, true},
	}
	for _, c := range cases {
		p, ok := topPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if got := quantile([]float64{5, 1, 4, 2, 3}, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.99); got != 4 {
		t.Errorf("p99 of 1..4 = %v, want 4 (nearest rank)", got)
	}
}

// An open loop counts latency from the instant a request was due, so a
// server that stalls on one request charges the wait to every request it
// delayed, and the generator reports how late it ran.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	const n = 10
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	c := newClient(srv.URL)
	samples, _ := runLoad(1, n, due, func(_, i int) error {
		_, _, err := c.do(i, "get", http.MethodGet, srv.URL, nil)
		return err
	})
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if s.latency < s.lag {
			t.Errorf("request %d: latency %v below its lag %v", i, s.latency, s.lag)
		}
	}
	if samples[0].lag > stall/2 {
		t.Errorf("first request ran %v late on an idle server", samples[0].lag)
	}
	// Request 2 stalls; request 3 was due 5 ms after it and waited out the
	// stall on the one connection.
	if got := samples[3].lag; got < stall/2 {
		t.Errorf("request behind the stall reports lag %v, want at least %v", got, stall/2)
	}
	if got := samples[3].latency; got < stall/2 {
		t.Errorf("request behind the stall reports latency %v from due time, want at least %v", got, stall/2)
	}

	// A closed loop has no schedule and so no lag.
	closed, _ := runLoad(2, 4, nil, func(_, i int) error { return nil })
	for i, s := range closed {
		if s.lag != 0 {
			t.Errorf("closed-loop request %d has lag %v", i, s.lag)
		}
	}
}

// Span accounting: self time is never negative for nested spans and
// children plus self give the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.node", Busy: 100},
		{ID: 2, Parent: 1, Name: "memory.setup", Busy: 10},
		{ID: 3, Parent: 1, Name: "memory.sram", Busy: 70},
		{ID: 4, Parent: 3, Name: "dram.model", Busy: 40},
		{ID: 5, Parent: 3, Name: "trace.stall", Busy: 5},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 10, 3: 25, 4: 40, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	children := map[int]int64{}
	for _, s := range spans {
		children[s.Parent] += s.Busy
	}
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("span %d: negative self time", s.ID)
		}
		if self[s.ID]+children[s.ID] != s.Busy {
			t.Errorf("span %d: self %d + children %d != busy %d", s.ID, self[s.ID], children[s.ID], s.Busy)
		}
	}
	by := rollupByName(spans)
	if got := get(by, "memory.sram").self; got != 25 {
		t.Errorf("memory.sram self %d, want 25", got)
	}
	if got := get(by, "absent").self; got != 0 {
		t.Errorf("absent span name rolls up to %d", got)
	}
}

// A shim forwards every event unchanged, counts them all, and from its
// sample estimates a busy time close to the wall time of the calls.
func TestShimCountsAndForwards(t *testing.T) {
	// The inner consumer does a microsecond of work per call, like the
	// DRAM-side consumers the timed shims wrap.
	inner := trace.NewStats()
	s := newShim(trace.Tee(inner, trace.NewCSVWriter(io.Discard)))
	runs := []trace.Run{{Base: 0, Stride: 1, Count: 40}, {Base: 100, Stride: 2, Count: 30}}
	const calls = 3000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		s.ConsumeRuns(int64(i), runs)
	}
	wall := time.Since(t0)
	if inner.Events != calls || inner.Accesses != calls*70 {
		t.Fatalf("inner saw %d events %d words, want %d and %d", inner.Events, inner.Accesses, calls, calls*70)
	}
	if want := int64(sampleEvery + (calls-sampleEvery)/sampleEvery); s.sampled < want-1 || s.sampled > want+1 {
		t.Errorf("timed %d of %d calls, want about %d", s.sampled, calls, want)
	}
	tr := newTracer()
	id := s.take(tr, 0, "n", "memory.sram", 1)
	sp := tr.spans[id-1]
	if sp.Counts["calls"] != calls || sp.Counts["runs"] != 2*calls {
		t.Errorf("span counts %v", sp.Counts)
	}
	if busy := time.Duration(sp.Busy); busy < wall/3 || busy > 3*wall/2 {
		t.Errorf("estimated busy %v, the loop around it took %v", busy, wall)
	}
	if s.calls != 0 || s.every != 1 {
		t.Errorf("take did not reset the shim: %+v", s)
	}
	c := newCounter(inner)
	c.ConsumeRuns(0, runs)
	if c.sampled != 0 || c.calls != 1 {
		t.Errorf("counter shim timed a call: %+v", c)
	}
}

// Generated inputs depend on the seed and on nothing else.
func TestPlansAreSeeded(t *testing.T) {
	a, b := newPlan(7, 2000, true), newPlan(7, 2000, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	c := newPlan(8, 2000, true)
	if reflect.DeepEqual(a.reqs, c.reqs) || reflect.DeepEqual(a.due, c.due) {
		t.Error("different seeds gave the same draws or schedule")
	}
	warm := map[string]bool{}
	for _, s := range a.specs[:a.warm] {
		warm[specLabel(s)] = true
	}
	seen := map[string]bool{}
	for _, s := range a.specs[a.warm:] {
		l := specLabel(s)
		if warm[l] || seen[l] {
			t.Errorf("novel spec %s repeats or is in the warm set", l)
		}
		seen[l] = true
		if _, err := s.Spec(); err != nil {
			t.Errorf("novel spec %s does not resolve: %v", l, err)
		}
	}
	novel := len(a.specs) - a.warm
	if novel < 60 || novel > 140 {
		t.Errorf("%d novel specs in 2000 requests, want about %v", novel, novelShare*2000)
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if rate := float64(len(a.due)) / a.due[len(a.due)-1].Seconds(); rate < 0.9*openRate || rate > 1.1*openRate {
		t.Errorf("schedule runs at %.1f req/s, want about %d", rate, openRate)
	}

	closed := newPlan(7, 500, false)
	if closed.due != nil || len(closed.specs) != closed.warm {
		t.Error("a closed-loop plan has a schedule or novel specs")
	}
	sub := a.sub(500, 700)
	if len(sub.reqs) != 200 || sub.due[0] != a.due[500]-a.due[499] {
		t.Errorf("sub-plan: %d requests, first due %v", len(sub.reqs), sub.due[0])
	}
}

// BENCHMARK.json and the harness name the same workloads and metrics,
// each once, in the driver's alphabet, and a finished result of either
// kind emits exactly its list.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	// BENCHMARK.json lists the gated workloads, in the harness's order.
	var gated []workloadDef
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the harness", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, gated[i].Name)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	// The driver's runs must fit its 3420 s with a tenth to spare: per
	// workload twenty timed runs of run_seconds plus up to 8 s of build
	// check and three set-ups, and two traced runs of 15 s; four runs that
	// fail at once; two cold builds of 90 s.
	w := float64(len(doc.Workloads))
	if total := 20*w*float64(doc.RunSeconds+8) + 2*w*15 + 4*5 + 2*90; total > 0.9*3420 {
		t.Errorf("run_seconds %d on %d workloads needs about %.0f s of the driver's 3420", doc.RunSeconds, len(doc.Workloads), total)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer",
			len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v out of range", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}

	for _, traced := range []bool{false, true} {
		r := newResult("resnet50_cold", traced)
		r.count(3, 0, nil)
		r.finish()
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.line()), &line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) || !line.Correct || line.Attempted != 3 {
			t.Errorf("traced=%v: result line has %d metrics (want %d), correct=%v", traced, len(line.Metrics), len(defs), line.Correct)
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: result line lacks %s in %s", traced, d.Name, d.Unit)
			}
		}
	}
}

// compare: within the bound is ok, beyond it is worse in the metric's bad
// direction only, and a noisy or missing side is unresolved.
func TestCompare(t *testing.T) {
	mk := func(wall, rate float64, noisy, correct bool) document {
		r := newResult("resnet50_cold", false)
		r.Metrics.set("wall_op_s", wall)
		r.Metrics.set("sim_cycles_per_s", rate)
		r.Noisy, r.Correct = noisy, correct
		return document{Workloads: []*result{r}}
	}
	verdicts := func(a, b document) map[string]string {
		rows, _ := compare(a, b)
		out := map[string]string{}
		for _, r := range rows {
			out[r.metric] = r.verdict
		}
		return out
	}
	// Both metrics carry the same bound; the cases sit either side of it.
	bound := endToEnd[0].Bound
	if endToEnd[0].Name != "wall_op_s" || endToEnd[2].Name != "sim_cycles_per_s" || endToEnd[2].Bound != bound {
		t.Fatal("the test assumes wall_op_s and sim_cycles_per_s share a bound")
	}
	in, out := 1+bound/2, 1+bound+0.1
	base := mk(1.0, 100, false, true)
	v := verdicts(base, mk(in, 100/in, false, true))
	if v["wall_op_s"] != "ok" || v["sim_cycles_per_s"] != "ok" {
		t.Errorf("within bounds: %v", v)
	}
	v = verdicts(base, mk(out, 100*(1-bound-0.1), false, true))
	if v["wall_op_s"] != "worse" || v["sim_cycles_per_s"] != "worse" {
		t.Errorf("beyond bounds: %v", v)
	}
	v = verdicts(base, mk(0.5, 200, false, true))
	if v["wall_op_s"] != "ok" || v["sim_cycles_per_s"] != "ok" {
		t.Errorf("better is not worse: %v", v)
	}
	if v = verdicts(base, mk(out, 80, true, true)); v["wall_op_s"] != "unresolved" {
		t.Errorf("noisy run: %v", v)
	}
	if v = verdicts(base, mk(1.0, 100, false, false)); v["wall_op_s"] != "worse" {
		t.Errorf("incorrect run: %v", v)
	}
	if v = verdicts(base, document{}); v["wall_op_s"] != "unresolved" {
		t.Errorf("missing workload: %v", v)
	}
	if _, worse := compare(base, mk(out, 100, false, true)); !worse {
		t.Error("compare does not report a worse row")
	}
	// peak_rss_mb was never set on either side.
	if v = verdicts(base, base); v["peak_rss_mb"] != "unresolved" {
		t.Errorf("metric missing on both sides: %v", v)
	}
}
