// Command scalesimd serves the simulator as a long-running HTTP/JSON
// service: clients POST job specs, poll (or stream) their progress, and
// fetch results whose report bytes are identical to what the scalesim
// CLI writes for the same spec. All jobs run on one shared worker pool
// behind a bounded admission queue — beyond the queue the daemon sheds
// load with 429 rather than letting latency grow — and share one result
// cache, so repeated configurations replay instead of re-simulating.
//
// Usage:
//
//	scalesimd -addr localhost:8100 -workers 4 -queue 16
//	scalesimd -cache-dir .simcache -cache-max-mb 256 -run-dir runs
//
// Endpoints:
//
//	POST /jobs              submit a job (JSON spec) -> 202 + job info
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         job status
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /jobs/{id}/result  completed result (?report=cycles|bandwidth|
//	                        detail|summary|operators for raw CSV bytes)
//	GET  /jobs/{id}/events  server-sent progress events
//	GET  /metrics           Prometheus text (job counters, queue depth,
//	                        latency quantiles, cache totals, the process's
//	                        peak RSS and minor faults)
//	GET  /healthz           liveness + queue snapshot
//	GET  /debug/pprof/      live profiling
//
// On SIGINT/SIGTERM the daemon stops admitting (503), drains in-flight
// and queued jobs within -drain-timeout — persisting their manifests to
// -run-dir — and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"scalesim/internal/cliobs"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/export"
	"scalesim/internal/obsv/log"
	"scalesim/internal/runstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scalesimd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("scalesimd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "localhost:8100", "listen address")
		workers = fs.Int("workers", 0, "jobs executed concurrently (0 = number of CPUs)")
		queue   = fs.Int("queue", 16, "admission queue depth; beyond it, submissions get 429")
		runDir  = fs.String("run-dir", "", "register completed jobs' manifests in this run registry (query with scalequery)")
		drain   = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight and queued jobs")
	)
	cacheFlags := cliobs.RegisterCache(fs)
	obs := cliobs.RegisterLog(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obs.Start("scalesimd", nil)
	if err != nil {
		return err
	}
	defer stopObs()

	cache, err := cacheFlags.Open()
	if err != nil {
		return err
	}
	var store *runstore.Store
	if *runDir != "" {
		if store, err = runstore.Open(*runDir); err != nil {
			return err
		}
	}
	runner := job.NewRunner(job.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Cache:      cache,
		Store:      store,
		Tool:       "scalesimd",
	})
	srv := newServer(runner)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "scalesimd: serving on http://%s\n", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "scalesimd: draining...")
	log.Default().Info("shutdown", "subsystem", "scalesimd", "drain_timeout", drain.String())
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := runner.Close(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "scalesimd: drain incomplete:", err)
	}
	return httpSrv.Shutdown(drainCtx)
}

// server is the daemon's HTTP surface over a job.Runner — separate from
// main's wiring so tests drive it through httptest.
type server struct {
	runner   *job.Runner
	mux      *http.ServeMux
	draining atomic.Bool
	// pollEvery paces the /events progress poll; tests shorten it.
	pollEvery time.Duration
}

func newServer(r *job.Runner) *server {
	s := &server{runner: r, mux: http.NewServeMux(), pollEvery: 200 * time.Millisecond}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.Handle("GET /metrics", export.Handler(func() obsv.MetricsSnapshot {
		r.Metrics().SetProcessGauges()
		return r.Metrics().Snapshot()
	}))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	export.MountPprof(s.mux)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain stops admission: subsequent submissions get 503 while
// status, result and metrics endpoints stay live for the drain.
func (s *server) BeginDrain() { s.draining.Store(true) }

// writeError emits the daemon's JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{"code": code, "message": fmt.Sprintf(format, args...)},
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	var req job.Request
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.runner.Submit(spec, job.Live{})
	switch {
	case errors.Is(err, job.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "queue full: try again later")
		return
	case errors.Is(err, job.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	log.Default().Info("job accepted", "subsystem", "scalesimd", "id", j.ID(), "net", j.Info().Net)
	writeJSON(w, http.StatusAccepted, j.Info())
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.runner.Jobs()
	infos := make([]job.Info, 0, len(jobs))
	for _, j := range jobs {
		infos = append(infos, j.Info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": infos})
}

// lookup resolves {id}; a miss writes the 404 envelope and returns nil.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job.Job {
	id := r.PathValue("id")
	j, ok := s.runner.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil
	}
	return j
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Info())
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if err := s.runner.Cancel(j.ID()); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	switch st := j.Status(); st {
	case job.StatusDone:
	case job.StatusFailed, job.StatusCancelled:
		writeError(w, http.StatusConflict, "job %s %s: %v", j.ID(), st, j.Err())
		return
	default:
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", j.ID(), st)
		return
	}
	res := j.Result()
	if name := r.URL.Query().Get("report"); name != "" {
		var buf = new(reportBuffer)
		if err := res.WriteReport(buf, name); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, _ = w.Write(buf.b)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       j.ID(),
		"status":   j.Status(),
		"reports":  res.Reports(),
		"manifest": res.Manifest,
	})
}

// reportBuffer accumulates a report before headers are committed, so a
// bad report name can still produce a clean 400.
type reportBuffer struct{ b []byte }

func (r *reportBuffer) Write(p []byte) (int, error) { r.b = append(r.b, p...); return len(p), nil }

// handleEvents streams the job's progress tail as server-sent events: one
// "progress" event per new line, one final "status" event at terminal.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// The cursor is an absolute line count, not an index into the
	// snapshot: the job's progress buffer is a sliding tail, so indexing
	// Info().Progress would skip lines — then stall entirely — once a
	// long job trims the buffer.
	sent := 0
	emit := func() {
		var lines []string
		lines, sent = j.ProgressSince(sent)
		for _, line := range lines {
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", line)
		}
	}
	tick := time.NewTicker(s.pollEvery)
	defer tick.Stop()
	for {
		emit()
		if st := j.Status(); st.Terminal() {
			fmt.Fprintf(w, "event: status\ndata: %s\n\n", st)
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	reg := s.runner.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"queued":  reg.Gauge("jobs.queued").Value(),
		"running": reg.Gauge("jobs.running").Value(),
	})
}
