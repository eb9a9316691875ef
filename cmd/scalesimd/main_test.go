package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/engine"
	"scalesim/internal/job"
	"scalesim/internal/obsv/cycleacct"
	"scalesim/internal/report"
	"scalesim/internal/runstore"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

const tinyBody = `{"run":"t","net":"TinyNet","array":"8x8","workers":1}`

func postJob(t *testing.T, ts *httptest.Server, body string) (job.Info, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var in job.Info
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatal(err)
		}
	}
	return in, resp
}

func pollDone(t *testing.T, ts *httptest.Server, id string) job.Info {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var in job.Info
		err = json.NewDecoder(resp.Body).Decode(&in)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if in.Status.Terminal() {
			return in
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return job.Info{}
}

func decodeErrorEnvelope(t *testing.T, resp *http.Response) (int, string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    int    `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	return env.Error.Code, env.Error.Message
}

// gateFactory parks the first layer that reaches it until release closes.
func gateFactory() (engine.Factory, chan struct{}, chan struct{}) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	return func(engine.Job, *engine.SinkSet) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}, started, release
}

func TestSubmitPollResultAndWarmReplay(t *testing.T) {
	runner := job.NewRunner(job.Options{Workers: 1, Cache: simcache.New(), Tool: "scalesimd"})
	defer runner.Close(context.Background())
	ts := httptest.NewServer(newServer(runner))
	defer ts.Close()

	in, resp := postJob(t, ts, tinyBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	done := pollDone(t, ts, in.ID)
	if done.Status != job.StatusDone {
		t.Fatalf("status = %s (%s)", done.Status, done.Error)
	}

	// The result document carries the v4 manifest.
	resp, err := http.Get(ts.URL + "/jobs/" + in.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reports  []string `json:"reports"`
		Manifest struct {
			Schema string `json:"schema"`
			Tool   string `json:"tool"`
			Cache  *struct {
				Hits, Misses int64
			} `json:"cache"`
		} `json:"manifest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Manifest.Schema != "scalesim.manifest/v4" || doc.Manifest.Tool != "scalesimd" {
		t.Fatalf("manifest identity = %q/%q", doc.Manifest.Schema, doc.Manifest.Tool)
	}
	if len(doc.Reports) == 0 || doc.Manifest.Cache == nil {
		t.Fatalf("result incomplete: %+v", doc)
	}

	// Report bytes are identical to what the CLI's writers produce.
	cfg := config.New().WithArray(8, 8)
	cfg.RunName = "t"
	sim, err := core.New(cfg, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Simulate(topology.TinyNet())
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer, core.RunResult) error{
		"cycles": report.WriteCycles, "summary": report.WriteSummary,
	} {
		resp, err := http.Get(ts.URL + "/jobs/" + in.ID + "/result?report=" + name)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var want bytes.Buffer
		if err := write(&want, direct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("daemon %s report differs from CLI writer:\n%s\n--\n%s", name, got, want.String())
		}
	}

	// Warm resubmission: cache hits appear in the new job's manifest.
	in2, _ := postJob(t, ts, tinyBody)
	pollDone(t, ts, in2.ID)
	resp, err = http.Get(ts.URL + "/jobs/" + in2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var doc2 struct {
		Manifest struct {
			Cache *struct{ Hits int64 } `json:"cache"`
		} `json:"manifest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc2.Manifest.Cache == nil || doc2.Manifest.Cache.Hits == 0 {
		t.Fatalf("warm replay recorded no cache hits: %+v", doc2.Manifest.Cache)
	}

	// An unknown report name is a clean 400.
	resp, err = http.Get(ts.URL + "/jobs/" + in.ID + "/result?report=nope")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := decodeErrorEnvelope(t, resp); resp.StatusCode != 400 || code != 400 {
		t.Fatalf("bad report name = %d/%d, want 400", resp.StatusCode, code)
	}
	resp.Body.Close()
}

// TestScaleOutJobMatchesCLI: a "parts" request is served by the same
// Runner body the scalesim CLI runs for -parts — same scaleout report
// bytes, same cycle account — under the daemon's tool name, and a warm
// resubmission replays every partition window from the shared cache.
func TestScaleOutJobMatchesCLI(t *testing.T) {
	runner := job.NewRunner(job.Options{Workers: 1, Cache: simcache.New(), Tool: "scalesimd"})
	defer runner.Close(context.Background())
	ts := httptest.NewServer(newServer(runner))
	defer ts.Close()

	// What `scalesim -net TinyNet -array 4x4 -sram 4,4,2 -parts 3x2` runs.
	const body = `{"net":"TinyNet","array":"4x4","sram":"4,4,2","parts":"3x2","workers":1}`
	spec, err := job.Request{Net: "TinyNet", Array: "4x4", SRAM: "4,4,2", Parts: "3x2", Workers: 1}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cli := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1})
	defer cli.Close(context.Background())
	direct, err := cli.Run(spec, job.Live{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteReport(&want, "scaleout"); err != nil {
		t.Fatal(err)
	}
	wantCA, _ := json.Marshal(direct.Manifest.CycleAccounting)

	type resultDoc struct {
		Reports  []string `json:"reports"`
		Manifest struct {
			Tool            string            `json:"tool"`
			CycleAccounting *cycleacct.Report `json:"cycle_accounting"`
			Cache           struct{ Hits int64 }
		} `json:"manifest"`
	}
	fetch := func(id string) (report []byte, doc resultDoc) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result?report=scaleout")
		if err != nil {
			t.Fatal(err)
		}
		report, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp, err = http.Get(ts.URL + "/jobs/" + id + "/result"); err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return report, doc
	}

	in, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if done := pollDone(t, ts, in.ID); done.Status != job.StatusDone {
		t.Fatalf("status = %s (%s)", done.Status, done.Error)
	}
	cold, doc := fetch(in.ID)
	if !bytes.Equal(cold, want.Bytes()) {
		t.Errorf("daemon scaleout report differs from the CLI table:\n%s\n--\n%s", cold, want.String())
	}
	if len(doc.Reports) != 1 || doc.Reports[0] != "scaleout" || doc.Manifest.Tool != "scalesimd" {
		t.Errorf("reports %v, tool %q", doc.Reports, doc.Manifest.Tool)
	}
	if ca, _ := json.Marshal(doc.Manifest.CycleAccounting); !bytes.Equal(ca, wantCA) {
		t.Errorf("daemon cycle_accounting differs from the CLI manifest")
	}

	in2, _ := postJob(t, ts, body)
	pollDone(t, ts, in2.ID)
	warm, doc2 := fetch(in2.ID)
	if hits := doc2.Manifest.Cache.Hits; hits == 0 || !bytes.Equal(warm, cold) {
		t.Errorf("warm resubmission: %d cache hits, report equal %v", hits, bytes.Equal(warm, cold))
	}

	// A scale-out result has no per-layer RunResult reports.
	resp, err = http.Get(ts.URL + "/jobs/" + in.ID + "/result?report=cycles")
	if err != nil {
		t.Fatal(err)
	}
	if _, msg := decodeErrorEnvelope(t, resp); resp.StatusCode != 400 || !strings.Contains(msg, "cycles") {
		t.Errorf("report=cycles = %d %q, want 400 naming it", resp.StatusCode, msg)
	}
	resp.Body.Close()

	// Refused by name at submission, nothing queued.
	for bad, name := range map[string]string{
		`{"net":"BERTTiny","parts":"1x2"}`:              `node "h0_softmax"`,
		`{"net":"TinyNet","parts":"0x2"}`:               "parts",
		`{"net":"TinyNet","parts":"1x2","dram":true}`:   "DRAM",
		`{"net":"TinyNet","parts":"1x2","dram_bw":0.5}`: "DRAMBandwidth",
	} {
		_, resp := postJob(t, ts, bad)
		if _, msg := decodeErrorEnvelope(t, resp); resp.StatusCode != 400 || !strings.Contains(msg, name) {
			t.Errorf("submit %s = %d %q, want 400 naming %s", bad, resp.StatusCode, msg, name)
		}
	}
	if n := len(runner.Jobs()); n != 2 {
		t.Errorf("%d jobs registered, want the two that ran", n)
	}
}

func TestQueueOverflowReturns429(t *testing.T) {
	gate, started, release := gateFactory()
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(newServer(runner))
	defer ts.Close()

	// Park the single worker from inside the process, then fill the
	// one-slot queue over HTTP.
	spec, err := (job.Request{Net: "TinyNet", Workers: 1}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	gj, err := runner.Submit(spec, job.Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, resp := postJob(t, ts, tinyBody); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit = %d, want 202", resp.StatusCode)
	}
	_, resp := postJob(t, ts, tinyBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	code, msg := decodeErrorEnvelope(t, resp)
	if code != 429 || !strings.Contains(msg, "queue full") {
		t.Fatalf("envelope = %d %q", code, msg)
	}
	close(release)
	if err := gj.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := runner.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate, started, release := gateFactory()
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(newServer(runner))
	defer ts.Close()

	spec, err := (job.Request{Net: "TinyNet", Workers: 1}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	running, err := runner.Submit(spec, job.Live{Sinks: engine.Registry{gate}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _ := postJob(t, ts, tinyBody)

	// Cancel the queued job: terminal immediately, without running.
	resp, err := http.Post(ts.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := pollDone(t, ts, queued.ID); got.Status != job.StatusCancelled {
		t.Fatalf("queued cancel = %s, want cancelled", got.Status)
	}

	// Cancel the running job mid-layer; it aborts at the next boundary.
	resp, err = http.Post(ts.URL+"/jobs/"+running.ID()+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	if got := pollDone(t, ts, running.ID()); got.Status != job.StatusCancelled {
		t.Fatalf("running cancel = %s, want cancelled", got.Status)
	}

	// A cancelled job's result is a 409 conflict.
	resp, err = http.Get(ts.URL + "/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled result = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	if err := runner.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRefusesAndPersists(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate, started, release := gateFactory()
	runner := job.NewRunner(job.Options{Workers: 1, QueueDepth: 4, Store: store, Tool: "scalesimd"})
	srv := newServer(runner)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec, err := (job.Request{Run: "gated", Net: "TinyNet", Workers: 1}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Submit(spec, job.Live{Sinks: engine.Registry{gate}}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, resp := postJob(t, ts, `{"run":"q","net":"TinyNet","array":"4x4","workers":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	srv.BeginDrain()
	if _, resp := postJob(t, ts, tinyBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := runner.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Both in-flight jobs completed and registered their manifests.
	if got := pollDone(t, ts, queued.ID); got.Status != job.StatusDone {
		t.Fatalf("queued job after drain = %s", got.Status)
	}
	entries, err := store.List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("registry entries = %d (err %v), want 2", len(entries), err)
	}
}

func TestEventsStreamAndHealthAndMetrics(t *testing.T) {
	runner := job.NewRunner(job.Options{Workers: 1, Cache: simcache.New()})
	defer runner.Close(context.Background())
	srv := newServer(runner)
	srv.pollEvery = 5 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	in, _ := postJob(t, ts, tinyBody)
	resp, err := http.Get(ts.URL + "/jobs/" + in.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var progress, status int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch sc.Text() {
		case "event: progress":
			progress++
		case "event: status":
			status++
		}
	}
	if progress == 0 || status != 1 {
		t.Fatalf("events: %d progress, %d status; want >0, 1", progress, status)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("health = %q", health.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"jobs_submitted", "jobs_completed", "cache_hits", "jobs_wall_seconds"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestMetricsProcessGauges: a scrape after one job carries the daemon's
// own peak resident set and minor page faults, read at scrape time, both
// above zero.
func TestMetricsProcessGauges(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc: the gauges are left out")
	}
	runner := job.NewRunner(job.Options{Workers: 1})
	defer runner.Close(context.Background())
	ts := httptest.NewServer(newServer(runner))
	defer ts.Close()
	in, resp := postJob(t, ts, tinyBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if info := pollDone(t, ts, in.ID); info.Status != job.StatusDone {
		t.Fatalf("job %s: %s", in.ID, info.Status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"process_peak_rss_bytes", "process_minor_faults"} {
		var v int64
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) == 2 && strings.HasSuffix(f[0], name) {
				v, _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
		if v <= 0 {
			t.Errorf("/metrics %s = %d, want above zero:\n%s", name, v, body)
		}
	}
}

func TestBadRequestsAndNotFound(t *testing.T) {
	runner := job.NewRunner(job.Options{Workers: 1})
	defer runner.Close(context.Background())
	ts := httptest.NewServer(newServer(runner))
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{"{not json", 400},
		{`{}`, 400},                  // no workload
		{`{"net":"NoSuchNet"}`, 400}, // unknown builtin
		{`{"net":"TinyNet","topology_csv":"x"}`, 400},   // two workloads
		{`{"net":"TinyNet","array":"banana"}`, 400},     // bad array
		{fmt.Sprintf(`{"net":%q}`, "TinyNet\x00"), 400}, // never 500
	} {
		_, resp := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("submit %q = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/jXXXX")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := decodeErrorEnvelope(t, resp); resp.StatusCode != 404 || code != 404 {
		t.Fatalf("unknown job = %d/%d, want 404", resp.StatusCode, code)
	}
	resp.Body.Close()
}
