package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scalesim/internal/job"
	"scalesim/internal/simcache"
)

// requests returns how many requests a daemon workload sends for a run of
// the given length.
func requests(name string, d time.Duration) (n int, open bool) {
	if name == "daemon_open_mix" {
		return int(openRate * d.Seconds()), true
	}
	return int(satRate * d.Seconds()), false
}

// sub is requests [lo, hi) of a plan as a plan of their own, the arrival
// schedule rebased to start at zero.
func (p plan) sub(lo, hi int) plan {
	q := plan{specs: p.specs, warm: p.warm, reqs: p.reqs[lo:hi]}
	if p.due != nil {
		var base time.Duration
		if lo > 0 {
			base = p.due[lo-1]
		}
		for _, at := range p.due[lo:hi] {
			q.due = append(q.due, at-base)
		}
	}
	return q
}

// load sends the plan's requests and returns the samples.
func (r *daemonRun) load(p plan) ([]sample, time.Duration) {
	return runLoad(len(r.clients), len(p.reqs), p.due, func(c, i int) error {
		return r.send(r.clients[c], i, p.reqs[i])
	})
}

// latencies splits the successful samples' latencies into warm and cold
// by the spec each request drew, and collects the errors.
func (p plan) latencies(samples []sample) (all, warm, cold []float64, errs []string) {
	for i, s := range samples {
		if s.err != nil {
			errs = append(errs, s.err.Error())
			continue
		}
		all = append(all, s.latency.Seconds())
		if p.reqs[i] < p.warm {
			warm = append(warm, s.latency.Seconds())
		} else {
			cold = append(cold, s.latency.Seconds())
		}
	}
	return all, warm, cold, errs
}

// runDaemon is the timed (untraced) run of a daemon workload.
func (h *harness) runDaemon(name string, gold *golden, d time.Duration) (*result, error) {
	// Set-up runs setupRounds times and the median is reported: one start
	// and prewarm is a handful of cold simulations, too few to repeat.
	// The daemon of the last round serves the timed run.
	n, open := requests(name, d)
	var p plan
	var run *daemonRun
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if run != nil {
			run.close()
		}
		start := time.Now()
		p = newPlan(h.env.Seed, n, open)
		var err error
		if run, err = h.setupDaemon(gold, p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer run.close()

	cpu0, err := procCPU(run.d.pid())
	if err != nil {
		return nil, err
	}
	samples, elapsed := run.load(p)
	cpu1, err := procCPU(run.d.pid())
	if err != nil {
		return nil, err
	}
	hwm, err := procHWM(run.d.pid())
	if err != nil {
		return nil, err
	}

	// The whole run is one sample here, where a CLI run has one per
	// process execution: a request is too short to time its CPU, and the
	// daemon's collector works in bursts, which a cut of the run into
	// batches of 400 requests charged to some batches and not to others
	// (the lower quartile of per-batch CPU spread by 20% over ten runs
	// where the whole run's CPU spread by 9%).
	lat, _, _, errs := p.latencies(samples)
	errs = append(errs, run.verifyNovel()...)
	r := newResult(name, false)
	r.count(n, len(errs), errs)
	r.Metrics.setN("wall_op_s", median(lat), len(lat))
	r.Metrics.setN("cpu_op_s", ratio((cpu1-cpu0).Seconds(), float64(len(lat))), len(lat))
	r.Metrics.setN("sim_cycles_per_s", ratio(float64(run.simCycles), elapsed.Seconds()), len(lat))
	r.Metrics.set("peak_rss_mb", hwm)
	r.Metrics.setN("setup_s", median(setups), len(setups))
	return r, nil
}

// traceDaemon is the traced run of a daemon workload: a quarter-length
// phase with no per-call recording, then a half-length phase with a span
// per HTTP call, /metrics scraped around it; after the daemon has
// stopped, its cache directory is scanned and the warm path is replayed
// in process one public call at a time.
func (h *harness) traceDaemon(name string, gold *golden, d time.Duration) (*result, error) {
	n, open := requests(name, d)
	quarter, half := n/4, n/2
	full := newPlan(h.env.Seed, quarter+half, open)
	run, err := h.setupDaemon(gold, full)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer run.close() // stopping twice is harmless
	r := newResult(name, true)
	m := r.Metrics
	m.set("scalesimd.start_s", run.startDur.Seconds())
	m.set("scalesimd.prewarm_s", run.prewarmDur.Seconds())

	p0 := full.sub(0, quarter)
	s0, _ := run.load(p0)
	plain, _, _, errs := p0.latencies(s0)

	for _, c := range run.clients {
		c.record = true
	}
	before, err := run.d.scrape()
	if err != nil {
		return nil, err
	}
	p := full.sub(quarter, quarter+half)
	run.resultBytes, run.results = 0, 0
	samples, elapsed := run.load(p)
	after, err := run.d.scrape()
	if err != nil {
		return nil, err
	}
	lat, warm, cold, errs1 := p.latencies(samples)
	errs = append(errs, errs1...)
	errs = append(errs, run.verifyNovel()...)
	r.count(quarter+half, len(errs), errs)

	// The generator.
	var lags, sendToDone []float64
	late := 0
	for _, s := range samples {
		lags = append(lags, s.lag.Seconds())
		if s.err == nil {
			sendToDone = append(sendToDone, (s.latency - s.lag).Seconds())
		}
		if s.err != nil || s.latency > lateAfter {
			late++
		}
	}
	tail, tailOK := topPercentile(len(samples))
	p99 := func(v []float64) float64 {
		if !tailOK || tail < 0.99 {
			return 0 // fewer than ten samples beyond p99: not a number that repeats
		}
		return quantile(v, 0.99)
	}
	if open {
		m.setN("gen.lag_p50_s", median(lags), len(lags))
		m.setN("gen.lag_p99_s", p99(lags), len(lags))
	}
	m.set("gen.sent", float64(len(samples)))
	m.set("gen.conns", float64(len(run.clients)))

	// The daemon as its client sees it.
	m.setN("scalesimd.lat_p50_s", median(lat), len(lat))
	m.setN("scalesimd.lat_p99_s", p99(lat), len(lat))
	m.setN("scalesimd.lat_warm_p50_s", median(warm), len(warm))
	m.setN("scalesimd.lat_cold_p50_s", median(cold), len(cold))
	if !open {
		m.setN("scalesimd.sat_rps", ratio(float64(len(lat)), elapsed.Seconds()), len(lat))
	}
	m.set("scalesimd.late_share", ratio(float64(late), float64(len(samples))))
	m.set("bench.trace_overhead_ratio", ratio(median(lat), median(plain)))

	t := newTracer()
	byCall := map[string][]float64{}
	roots := make([]int, len(samples))
	for i, s := range samples {
		roots[i] = t.add(span{Req: fmt.Sprintf("r%d", i), Name: "gen.request",
			Start: t.since(s.from), End: t.since(s.from.Add(s.latency)), Busy: int64(s.latency)})
	}
	for _, cl := range run.clients {
		for _, c := range cl.calls {
			byCall[c.name] = append(byCall[c.name], c.end.Sub(c.start).Seconds())
			t.add(span{Parent: roots[c.req], Req: fmt.Sprintf("r%d", c.req), Name: "scalesimd." + c.name,
				Start: t.since(c.start), End: t.since(c.end), Busy: int64(c.end.Sub(c.start))})
		}
	}
	m.setN("scalesimd.post_p50_s", median(byCall["post"]), len(byCall["post"]))
	m.setN("scalesimd.poll_p50_s", median(byCall["poll"]), len(byCall["poll"]))
	m.setN("scalesimd.result_p50_s", median(byCall["result"]), len(byCall["result"]))
	m.set("scalesimd.polls_per_req", ratio(float64(len(byCall["poll"])), float64(len(byCall["post"]))))
	m.set("scalesimd.result_bytes", ratio(float64(run.resultBytes), float64(run.results)))

	// The job layer and the cache, from the daemon's own counters.
	delta := func(k string) float64 { return after[k] - before[k] }
	m.set("job.wall_mean_s", ratio(delta("jobs_wall_seconds_sum"), delta("jobs_wall_seconds_count")))
	m.set("job.submitted", delta("jobs_submitted"))
	m.set("job.rejected", delta("jobs_rejected"))
	m.set("job.failed", delta("jobs_failed"))
	m.set("scalesimd.http_overhead_s", ratio(sum(sendToDone), float64(len(sendToDone)))-m["job.wall_mean_s"].Value)
	m.set("simcache.hit_ratio", ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses")))
	m.set("simcache.entries", after["cache_entries"])

	run.close()
	if err := run.replica(m, after["cache_misses"]); err != nil {
		return nil, err
	}
	return r, t.write(h.root, name)
}

// replica measures the warm path's parts in process, on what the daemon
// left in its cache directory: decoding a request into a Spec, a warm
// Runner.Run, simcache.Get from disk and from memory, Put into a fresh
// capped cache, and the renders a result fetch performs.
func (r *daemonRun) replica(m metricSet, daemonMisses float64) error {
	dir := r.d.cacheDir
	keys, _, err := simcache.ScanDir(dir)
	if err != nil {
		return err
	}
	var diskBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && filepath.Ext(e.Name()) == ".json" {
			diskBytes += info.Size()
		}
	}
	m.set("simcache.disk_entries", float64(len(keys)))
	m.set("simcache.disk_mb", float64(diskBytes)/(1<<20))
	// Every miss spills one file; what is no longer there was evicted.
	m.set("simcache.evicted", max(0, daemonMisses-float64(len(keys))))

	cache, err := simcache.NewDisk(dir)
	if err != nil {
		return err
	}
	var diskGet []float64
	loaded := make([]simcache.Entry, len(keys))
	for i, k := range keys {
		t0 := time.Now()
		e, ok := cache.Get(k)
		diskGet = append(diskGet, float64(time.Since(t0).Microseconds()))
		if !ok {
			return fmt.Errorf("replica: scanned key missing from the cache directory")
		}
		loaded[i] = e
	}
	m.setN("simcache.disk_get_us", median(diskGet), len(diskGet))
	const rounds = 200
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, k := range keys {
			cache.Get(k)
		}
	}
	m.setN("simcache.mem_get_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(rounds*len(keys))), rounds*len(keys))

	putDir, err := r.h.dir("put")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	capped, err := simcache.NewDiskLRU(putDir, 1<<20)
	if err != nil {
		return err
	}
	var put []float64
	for i, k := range keys {
		t0 := time.Now()
		capped.Put(k, loaded[i])
		put = append(put, float64(time.Since(t0).Microseconds()))
	}
	m.setN("simcache.put_us", median(put), len(put))

	runner := job.NewRunner(job.Options{Workers: 1, Cache: cache})
	defer func() { _ = runner.Close(context.Background()) }()
	var decode, warmRun, render, manifest []float64
	var reportBytes, manifestBytes int
	for i := 0; i < r.plan.warm; i++ {
		t0 := time.Now()
		var req job.Request
		if err := json.Unmarshal(r.bodies[i], &req); err != nil {
			return err
		}
		spec, err := req.Spec()
		if err != nil {
			return err
		}
		decode = append(decode, float64(time.Since(t0).Microseconds()))
		var res *job.Result
		for round := 0; round < 6; round++ {
			t0 = time.Now()
			if res, err = runner.Run(spec, job.Live{}); err != nil {
				return err
			}
			if round > 0 { // the first run may still load from disk
				warmRun = append(warmRun, float64(time.Since(t0).Microseconds()))
			}
		}
		var buf bytes.Buffer
		t0 = time.Now()
		if err := res.WriteReport(&buf, "cycles"); err != nil {
			return err
		}
		render = append(render, time.Since(t0).Seconds())
		reportBytes += buf.Len()
		if got, want := digest(buf.Bytes()), r.gold.Daemon[specLabel(r.plan.specs[i])]; got != want {
			return fmt.Errorf("replica: %s cycles report differs from the CLI golden", specLabel(r.plan.specs[i]))
		}
		t0 = time.Now()
		doc, err := json.Marshal(res.Manifest)
		if err != nil {
			return err
		}
		manifest = append(manifest, time.Since(t0).Seconds())
		manifestBytes += len(doc)
	}
	w := float64(r.plan.warm)
	m.setN("job.spec_decode_us", median(decode), len(decode))
	m.setN("job.run_warm_us", median(warmRun), len(warmRun))
	m.setN("report.render_s", median(render), len(render))
	m.set("report.bytes", float64(reportBytes)/w)
	m.setN("obsv.manifest_s", median(manifest), len(manifest))
	m.set("obsv.manifest_bytes", float64(manifestBytes)/w)
	return nil
}
