// Package export turns the obsv metrics registry into telemetry other
// systems can consume: Prometheus text-format exposition (version 0.0.4)
// served over HTTP for live scraping, and periodic JSONL snapshots for
// headless sweeps where nothing scrapes but the operator still wants a
// time series after the fact.
//
// The exposition is summary-flavoured: obsv histograms keep exact samples
// and report nearest-rank p50/p95/p99, which map onto Prometheus summary
// series ({quantile="0.5"} etc. plus _sum and _count) rather than bucketed
// histogram series. Registry names are dotted ("core.simcache.hits");
// exposition names are the sanitized form under the scalesim_ namespace
// ("scalesim_core_simcache_hits"), with the raw name preserved in the
// HELP line. Output is sorted by family name, so two scrapes of one
// registry state are byte-identical.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"scalesim/internal/obsv"
)

// Namespace prefixes every exposed metric family.
const Namespace = "scalesim_"

// SanitizeName maps a registry metric name onto the Prometheus name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every illegal rune becomes '_', and a
// leading digit is guarded with '_'. The empty name becomes "_".
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if legal {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// EscapeLabel escapes a label value per the text format: backslash,
// double quote and newline.
func EscapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal).
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// HistogramSeries describes one series of a histogram family on both
// export surfaces: the Prometheus exposition (a quantile label or a
// family-name suffix) and the JSONL snapshot schema (the field name in
// the histogram document).
type HistogramSeries struct {
	// Suffix is appended to the family name; empty for quantile series.
	Suffix string
	// Quantile is the quantile label value when Suffix is empty.
	Quantile string
	// JSONField names the corresponding obsv.HistogramSnapshot JSON key.
	JSONField string
	// Value is the series' sample value.
	Value float64
}

// HistogramFamily enumerates a histogram family's series in canonical
// exposition order. This is the single family definition: WritePrometheus
// renders exactly this list and the parity test pins the JSONL snapshot
// schema to it, so the two surfaces can never drift apart.
func HistogramFamily(h obsv.HistogramSnapshot) []HistogramSeries {
	return []HistogramSeries{
		{Quantile: "0.5", JSONField: "p50", Value: h.P50},
		{Quantile: "0.95", JSONField: "p95", Value: h.P95},
		{Quantile: "0.99", JSONField: "p99", Value: h.P99},
		{Suffix: "_sum", JSONField: "sum", Value: h.Sum},
		{Suffix: "_count", JSONField: "count", Value: float64(h.Count)},
		{Suffix: "_min", JSONField: "min", Value: h.Min},
		{Suffix: "_max", JSONField: "max", Value: h.Max},
	}
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format: counters and gauges as single samples, histograms as summary
// families (quantile series, _sum, _count) plus _min/_max gauges.
// Families are sorted by exposed name, so identical snapshots render
// byte-identically.
func WritePrometheus(w io.Writer, snap obsv.MetricsSnapshot) error {
	type family struct {
		name string
		emit func(io.Writer, string) error
	}
	var families []family

	add := func(raw string, emit func(io.Writer, string) error) {
		families = append(families, family{name: Namespace + SanitizeName(raw), emit: emit})
	}
	for raw, v := range snap.Counters {
		raw, v := raw, v
		add(raw, func(w io.Writer, name string) error {
			_, err := fmt.Fprintf(w, "# HELP %s scalesim counter %q\n# TYPE %s counter\n%s %d\n",
				name, escapeHelp(raw), name, name, v)
			return err
		})
	}
	for raw, v := range snap.Gauges {
		raw, v := raw, v
		add(raw, func(w io.Writer, name string) error {
			_, err := fmt.Fprintf(w, "# HELP %s scalesim gauge %q\n# TYPE %s gauge\n%s %d\n",
				name, escapeHelp(raw), name, name, v)
			return err
		})
	}
	for raw, h := range snap.Histograms {
		raw, h := raw, h
		add(raw, func(w io.Writer, name string) error {
			if _, err := fmt.Fprintf(w, "# HELP %s scalesim summary %q\n# TYPE %s summary\n",
				name, escapeHelp(raw), name); err != nil {
				return err
			}
			for _, s := range HistogramFamily(h) {
				var err error
				if s.Suffix == "" {
					_, err = fmt.Fprintf(w, "%s{quantile=\"%s\"} %s\n",
						name, EscapeLabel(s.Quantile), formatFloat(s.Value))
				} else {
					_, err = fmt.Fprintf(w, "%s%s %s\n",
						name, s.Suffix, formatFloat(s.Value))
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}

	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	for _, f := range families {
		if err := f.emit(w, f.name); err != nil {
			return fmt.Errorf("export: %w", err)
		}
	}
	return nil
}

// Handler serves the source's current snapshot as a /metrics response.
func Handler(src func() obsv.MetricsSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, src())
	})
}

// MountPprof registers the net/http/pprof handlers on mux — the one list
// of them, shared by Serve and the scalesimd daemon's mux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve exposes the net/http/pprof handlers and, when src is non-nil,
// /metrics (live Prometheus exposition of src) on addr for the lifetime of
// a run: -metrics-addr passes the run's registry, -pprof passes nil. It
// returns the bound address — useful when addr asked for port 0 — and a
// stop function. Handlers live on a private mux; http.DefaultServeMux is
// never touched.
func Serve(addr string, src func() obsv.MetricsSnapshot) (string, func() error, error) {
	mux := http.NewServeMux()
	if src != nil {
		mux.Handle("/metrics", Handler(src))
	}
	MountPprof(mux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("export: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// Snapshotter periodically appends registry snapshots as JSONL — one
// {"ts","elapsed_seconds","metrics"} document per line — so a headless
// sweep leaves a coarse metrics time series behind without anything
// scraping it. Stop writes one final snapshot, so even runs shorter than
// the interval record their end state.
type Snapshotter struct {
	w        io.Writer
	src      func() obsv.MetricsSnapshot
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	writeErr error
}

// NewSnapshotter starts a snapshotter writing src's snapshot to w every
// interval (minimum 100ms; zero or below selects 1s).
func NewSnapshotter(w io.Writer, src func() obsv.MetricsSnapshot, interval time.Duration) *Snapshotter {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	s := &Snapshotter{w: w, src: src, start: time.Now(),
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.write()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *Snapshotter) write() {
	snap := s.src()
	line := struct {
		TS             string               `json:"ts"`
		ElapsedSeconds float64              `json:"elapsed_seconds"`
		Metrics        obsv.MetricsSnapshot `json:"metrics"`
	}{
		TS:             time.Now().UTC().Format(time.RFC3339Nano),
		ElapsedSeconds: time.Since(s.start).Seconds(),
		Metrics:        snap,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return
	}
	enc := jsonLine(line)
	if _, err := s.w.Write(enc); err != nil {
		s.writeErr = err
	}
}

// jsonLine marshals v followed by a newline. The snapshot types are
// always marshalable; a failure would be a programming error, reported as
// a JSONL error line rather than a panic.
func jsonLine(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return append(data, '\n')
}

// Stop halts the ticker, writes one final snapshot and returns the first
// write error, if any. Safe to call once.
func (s *Snapshotter) Stop() error {
	close(s.stop)
	<-s.done
	s.write()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return fmt.Errorf("export: snapshot write: %w", s.writeErr)
	}
	return nil
}
