package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scalesim/internal/obsv"
)

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"core.simcache.hits":   "core_simcache_hits",
		"engine.queue-depth":   "engine_queue_depth",
		"already_legal:name":   "already_legal:name",
		"0starts.with.digit":   "_0starts_with_digit",
		"spaces and, commas":   "spaces_and__commas",
		"":                     "_",
		"üñïcode":              "___code",
		"core.layer.7_seconds": "core_layer_7_seconds",
		`back\slash"and"quote`: "back_slash_and_quote",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
	// Every output must satisfy the Prometheus name grammar.
	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	for _, in := range []string{"a.b", "9", "", "x y", "Δt", "ok_name"} {
		if got := SanitizeName(in); !nameRE.MatchString(got) {
			t.Errorf("SanitizeName(%q) = %q, not a legal metric name", in, got)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := EscapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("EscapeLabel = %q", got)
	}
}

// snapshotFixture returns a deterministic registry snapshot exercising
// every metric kind and a name that needs sanitizing.
func snapshotFixture() obsv.MetricsSnapshot {
	var reg obsv.Registry
	reg.Counter("core.simcache.hits").Add(41)
	reg.Counter("jobs done!").Add(7)
	reg.Gauge("engine.queue.depth").Set(3)
	h := reg.Histogram("core.layer.compute_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	return reg.Snapshot()
}

func TestWritePrometheusSummarySeries(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snapshotFixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE scalesim_core_simcache_hits counter",
		"scalesim_core_simcache_hits 41",
		"# TYPE scalesim_jobs_done_ counter",
		"# TYPE scalesim_engine_queue_depth gauge",
		"scalesim_engine_queue_depth 3",
		"# TYPE scalesim_core_layer_compute_seconds summary",
		`scalesim_core_layer_compute_seconds{quantile="0.5"} 0.05`,
		`scalesim_core_layer_compute_seconds{quantile="0.95"} 0.095`,
		`scalesim_core_layer_compute_seconds{quantile="0.99"} 0.099`,
		"scalesim_core_layer_compute_seconds_count 100",
		"scalesim_core_layer_compute_seconds_min 0.001",
		"scalesim_core_layer_compute_seconds_max 0.1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP preserves the raw dotted name for attribution.
	if !strings.Contains(out, `scalesim counter "core.simcache.hits"`) {
		t.Errorf("HELP line missing raw name:\n%s", out)
	}
}

// TestHistogramFamilyParity pins both export surfaces to the single
// family definition: every series HistogramFamily enumerates must appear
// exactly once in the Prometheus exposition AND as a field of the JSONL
// histogram document, with the same value — and the JSONL document must
// carry nothing more. Adding a member to one surface without the other
// (the historic _min/_max drift) fails here.
func TestHistogramFamilyParity(t *testing.T) {
	snap := snapshotFixture()
	h, ok := snap.Histograms["core.layer.compute_seconds"]
	if !ok {
		t.Fatal("fixture lost its histogram")
	}
	fam := HistogramFamily(h)

	// JSONL surface: the marshaled histogram document's fields are
	// exactly the family's JSONField set.
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]float64
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != len(fam) {
		t.Errorf("JSONL document has %d fields, family defines %d:\n%s", len(doc), len(fam), data)
	}
	for _, s := range fam {
		v, ok := doc[s.JSONField]
		if !ok {
			t.Errorf("JSONL document missing family member %q", s.JSONField)
			continue
		}
		if v != s.Value {
			t.Errorf("JSONL %s = %v, family says %v", s.JSONField, v, s.Value)
		}
	}

	// Prometheus surface: each series renders exactly once.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	const name = Namespace + "core_layer_compute_seconds"
	for _, s := range fam {
		line := name + s.Suffix + " " + formatFloat(s.Value)
		if s.Suffix == "" {
			line = fmt.Sprintf("%s{quantile=%q} %s", name, s.Quantile, formatFloat(s.Value))
		}
		if n := strings.Count(buf.String(), line+"\n"); n != 1 {
			t.Errorf("exposition has %d copies of series %q, want 1:\n%s", n, line, buf.String())
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	snap := snapshotFixture()
	if err := WritePrometheus(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of one snapshot differ")
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snapshotFixture()); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/metrics.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s--- want ---\n%s",
			path, buf.String(), want)
	}
}

// parseExposition is a strict validator of the text exposition format:
// every line must be a comment or a `name[{labels}] value` sample with a
// grammar-legal name, well-formed quoted label values and a float value,
// and every sample's family must have a preceding # TYPE line.
func parseExposition(t *testing.T, text string) int {
	t.Helper()
	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	typed := make(map[string]string)
	samples := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					t.Fatalf("illegal TYPE %q in %q", fields[3], line)
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !nameRE.MatchString(name) {
			t.Fatalf("illegal metric name %q in %q", name, line)
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				t.Fatalf("unterminated label set in %q", line)
			}
			labels := rest[1:end]
			rest = rest[end+1:]
			labelRE := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*$`)
			if !labelRE.MatchString(labels) {
				t.Fatalf("malformed labels %q in %q", labels, line)
			}
		}
		value := strings.TrimSpace(rest)
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("non-float value %q in %q: %v", value, line, err)
		}
		family := name
		for _, suffix := range []string{"_sum", "_count", "_min", "_max"} {
			if base := strings.TrimSuffix(name, suffix); base != name {
				if _, ok := typed[base]; ok {
					family = base
				}
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples++
	}
	return samples
}

func TestExpositionParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snapshotFixture()); err != nil {
		t.Fatal(err)
	}
	if n := parseExposition(t, buf.String()); n == 0 {
		t.Fatal("no samples in exposition")
	}
}

func TestScrapeDuringConcurrentMutation(t *testing.T) {
	var reg obsv.Registry
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter(fmt.Sprintf("mut.counter.%d", g)).Inc()
				reg.Gauge("mut.gauge").Set(int64(i))
				// A histogram keeps every sample and a snapshot sorts them
				// all, so its share of the mutation is bounded: unbounded,
				// a scraper starved of CPU falls ever further behind the
				// four writers (minutes, then OOM-killed on a loaded host).
				if i < 20000 {
					reg.Histogram("mut.hist_seconds").Observe(float64(i))
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		parseExposition(t, buf.String())
	}
	close(stop)
	wg.Wait()
}

func TestServeMetricsEndpoint(t *testing.T) {
	var reg obsv.Registry
	reg.Counter("serve.hits").Add(5)
	addr, stopServe, err := Serve("127.0.0.1:0", reg.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stopServe() }()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "scalesim_serve_hits 5") {
		t.Errorf("scrape missing counter:\n%s", body)
	}
	parseExposition(t, string(body))

	// pprof rides along on the same address.
	pr, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", pr.StatusCode)
	}
}

// TestServePprof: with no metrics source (the -pprof flag) the server
// carries the pprof handlers and nothing else.
func TestServePprof(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop() }()
	for path, want := range map[string]int{
		"/debug/pprof/cmdline": http.StatusOK,
		"/metrics":             http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestSnapshotterWritesJSONL(t *testing.T) {
	var reg obsv.Registry
	reg.Counter("snap.count").Add(3)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := NewSnapshotter(w, reg.Snapshot, 100*time.Millisecond)
	time.Sleep(250 * time.Millisecond)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) < 2 { // at least one tick plus the final flush
		t.Fatalf("snapshot lines = %d, want >= 2", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, `"ts"`) || !strings.Contains(line, `"snap.count":3`) {
			t.Errorf("snapshot line malformed: %q", line)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
