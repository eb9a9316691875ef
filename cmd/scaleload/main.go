// Command scaleload drives a running scalesimd daemon with synthetic
// clients and reports service-level latency and cache effectiveness: N
// concurrent clients submit jobs, poll them to completion, and the tool
// prints request-latency quantiles (p50/p95/p99), throughput, the
// rejection (429) count, and the daemon's cache hit rate scraped from
// its /metrics endpoint.
//
// Usage:
//
//	scaleload -addr localhost:8100 -clients 8 -n 64
//	scaleload -net TinyNet -array 8x8 -o results/bench.json
//
// Every client submits the same spec, so after the first completion the
// daemon's shared cache serves warm replays — the steady state a service
// fronting repeated configuration sweeps lives in. -json writes the
// machine-readable report for benchmark baselines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"scalesim/internal/cliobs"
	"scalesim/internal/disk"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
)

func main() { cliobs.Main("scaleload", run) }

// Report is the machine-readable load-test outcome.
type Report struct {
	Addr     string  `json:"addr"`
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	Done     int64   `json:"done"`
	Failed   int64   `json:"failed"`
	Rejected int64   `json:"rejected"`
	Seconds  float64 `json:"seconds"`
	// RequestsPerSecond counts completed jobs over wall time.
	RequestsPerSecond float64 `json:"requests_per_second"`
	// Latency quantiles are end-to-end: submit to terminal status.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP95 float64 `json:"latency_p95_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// Cache totals are scraped from the daemon's /metrics after the run.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scaleload", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "localhost:8100", "scalesimd address")
		clients = fs.Int("clients", 4, "concurrent synthetic clients")
		n       = fs.Int("n", 16, "total requests across all clients")
		net     = fs.String("net", "TinyNet", "built-in workload each request submits")
		array   = fs.String("array", "8x8", "array dimensions each request submits")
		workers = fs.Int("workers", 1, "per-job layer parallelism requested")
		poll    = fs.Duration("poll", 25*time.Millisecond, "status poll interval")
		timeout = fs.Duration("timeout", 5*time.Minute, "per-request completion timeout")
		outPath = fs.String("o", "", "also write the JSON report to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *n < 1 {
		return fmt.Errorf("need at least one client and one request")
	}
	base := "http://" + strings.TrimPrefix(*addr, "http://")
	req := job.Request{Net: *net, Array: *array, Workers: *workers, Run: "load"}
	rep, err := drive(base, *clients, *n, req, *poll, *timeout)
	if err != nil {
		return err
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := disk.Create(*outPath, disk.Bytes(append(data, '\n'))); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// drive runs the load: clients workers draining a ticket pool of n
// requests against base, then one /metrics scrape for cache totals.
func drive(base string, clients, n int, req job.Request, poll, timeout time.Duration) (*Report, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	// Fail fast when the daemon is unreachable — better than n silent
	// client errors.
	if _, err := http.Get(base + "/healthz"); err != nil {
		return nil, fmt.Errorf("daemon unreachable: %w", err)
	}

	var reg obsv.Registry
	lat := reg.Histogram("latency")
	done := reg.Counter("done")
	failed := reg.Counter("failed")
	rejected := reg.Counter("rejected")

	tickets := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		tickets <- struct{}{}
	}
	close(tickets)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range tickets {
				t0 := time.Now()
				status, err := oneRequest(base, body, poll, timeout)
				switch {
				case err != nil:
					failed.Inc()
				case status == http.StatusTooManyRequests:
					rejected.Inc()
				case status == http.StatusOK:
					done.Inc()
					lat.Observe(time.Since(t0).Seconds())
				default:
					failed.Inc()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := &Report{
		Addr:     base,
		Clients:  clients,
		Requests: n,
		Done:     done.Value(),
		Failed:   failed.Value(),
		Rejected: rejected.Value(),
		Seconds:  elapsed,
	}
	if elapsed > 0 {
		rep.RequestsPerSecond = float64(rep.Done) / elapsed
	}
	rep.LatencyP50 = lat.Quantile(0.50)
	rep.LatencyP95 = lat.Quantile(0.95)
	rep.LatencyP99 = lat.Quantile(0.99)
	rep.CacheHits, rep.CacheMisses = scrapeCache(base)
	if total := rep.CacheHits + rep.CacheMisses; total > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(total)
	}
	return rep, nil
}

// oneRequest submits the job and polls it to a terminal state. The
// returned status is 200 for a job that reached "done", the submit
// status for sheds (429/503), and an error-ish 500 otherwise.
func oneRequest(base string, body []byte, poll, timeout time.Duration) (int, error) {
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	var in job.Info
	derr := json.NewDecoder(resp.Body).Decode(&in)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil
	}
	if derr != nil {
		return 0, derr
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + in.ID)
		if err != nil {
			return 0, err
		}
		derr := json.NewDecoder(resp.Body).Decode(&in)
		resp.Body.Close()
		if derr != nil {
			return 0, derr
		}
		if in.Status.Terminal() {
			if in.Status == job.StatusDone {
				return http.StatusOK, nil
			}
			return http.StatusInternalServerError, nil
		}
		time.Sleep(poll)
	}
	return 0, fmt.Errorf("request timed out after %s", timeout)
}

// scrapeCache reads the cache hit/miss totals from the daemon's
// Prometheus exposition; zeros when absent (cache off). The exposition
// namespaces metric names (scalesim_cache_hits), so match on the
// suffix.
func scrapeCache(base string) (hits, misses int64) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(fields[0], "cache_hits"):
			hits = int64(v)
		case strings.HasSuffix(fields[0], "cache_misses"):
			misses = int64(v)
		}
	}
	return hits, misses
}
