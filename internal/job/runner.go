package job

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalesim/internal/batch"
	"scalesim/internal/core"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/obsv/log"
	"scalesim/internal/obsv/timeline"
	"scalesim/internal/runstore"
	"scalesim/internal/simcache"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity — the service front end turns this into HTTP 429.
var ErrQueueFull = errors.New("job: queue full")

// ErrClosed is returned by submissions after Close has begun.
var ErrClosed = errors.New("job: runner closed")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("job: no such job")

// Live carries the per-submission live consumers a Spec deliberately
// excludes: writers and sinks that only make sense for an in-process
// caller (the CLIs). Network submissions leave it zero; the job then
// buffers its own progress tail and records nothing: with no Obs its
// manifest carries results but no wall timings, phases or spans.
//
// Note that trace, timeline and sink consumers disable the shared
// simcache for that job (cached replay cannot re-emit live streams) —
// the same rule the core applies everywhere. A scale-out job (Spec.Parts)
// takes no TraceDir and no Sinks (core.Options.Validate): sibling
// partitions of a layer would share them.
type Live struct {
	// Progress receives per-layer completion lines (e.g. stderr).
	Progress *obsv.Progress
	// Timeline receives the simulated-machine timeline.
	Timeline *timeline.Writer
	// TraceDir writes per-layer SRAM/DRAM trace CSVs.
	TraceDir string
	// Sinks taps cycle-level read/write streams.
	Sinks engine.Registry
	// Obs, when non-nil, records the run (phases, spans, layer wall
	// times) into the manifest; nil records none of them.
	Obs *obsv.Recorder
}

// Options configures a Runner.
type Options struct {
	// Workers is the number of jobs executed concurrently (0 =
	// GOMAXPROCS). Each job additionally has its own internal layer
	// parallelism (Spec.Workers).
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs (0 = 64). Beyond it,
	// Submit sheds with ErrQueueFull.
	QueueDepth int
	// Cache is the shared result cache; repeated (config, layer-shape)
	// pairs across all jobs replay from it. May be nil.
	Cache *simcache.Cache
	// Store, when non-nil, registers every completed job's manifest in a
	// run registry (scalequery sees service runs).
	Store *runstore.Store
	// Tool overrides the manifest's Tool field ("scalesimd" for the
	// daemon); empty keeps the producer's default.
	Tool string
}

// progressTail bounds the buffered progress lines kept per job when no
// live Progress writer is supplied.
const progressTail = 64

// Runner executes jobs on a persistent bounded worker pool behind an
// admission queue. It is the one orchestration path shared by the
// scalesim, scalesweep and scaledse CLIs and the scalesimd daemon.
type Runner struct {
	opt  Options
	pool *engine.Pool
	reg  *obsv.Registry

	submitted *obsv.Counter
	completed *obsv.Counter
	failed    *obsv.Counter
	cancelled *obsv.Counter
	rejected  *obsv.Counter
	queued    *obsv.Gauge
	running   *obsv.Gauge
	wall      *obsv.Histogram

	runningN atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	closed bool
}

// NewRunner starts a runner with its worker pool.
func NewRunner(opt Options) *Runner {
	r := &Runner{
		opt:  opt,
		pool: engine.NewPool(opt.Workers, opt.QueueDepth),
		reg:  &obsv.Registry{},
		jobs: make(map[string]*Job),
	}
	r.submitted = r.reg.Counter("jobs.submitted")
	r.completed = r.reg.Counter("jobs.completed")
	r.failed = r.reg.Counter("jobs.failed")
	r.cancelled = r.reg.Counter("jobs.cancelled")
	r.rejected = r.reg.Counter("jobs.rejected")
	r.queued = r.reg.Gauge("jobs.queued")
	r.running = r.reg.Gauge("jobs.running")
	r.wall = r.reg.Histogram("jobs.wall_seconds")
	return r
}

// Metrics exposes the runner's service-level registry (job counters,
// queue depth, wall-time quantiles, cache totals) — the source behind
// the daemon's /metrics endpoint.
func (r *Runner) Metrics() *obsv.Registry { return r.reg }

// newJob registers a job in the runner's table and returns it.
func (r *Runner) newJob(kind, key, run, net string, units int, live Live) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		kind:   kind,
		key:    key,
		run:    run,
		net:    net,
		units:  units,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		live:   live,
		status: StatusQueued,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		cancel()
		return nil, ErrClosed
	}
	r.seq++
	j.id = fmt.Sprintf("j%04d", r.seq)
	j.submitted = time.Now()
	if live.Progress != nil {
		j.progress = live.Progress
	} else {
		j.buf = newLineBuffer(progressTail)
		j.progress = obsv.NewProgress(j.buf, j.id)
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	return j, nil
}

// dispatch runs the job lifecycle on the pool: skip if cancelled while
// queued, execute, map the terminal state, account metrics, and persist
// the manifest to the run registry.
func (r *Runner) dispatch(j *Job) func() {
	return func() {
		r.queued.Set(int64(r.pool.Pending()))
		if !j.markRunning() {
			return // cancelled while queued
		}
		r.running.Set(r.runningN.Add(1))
		defer func() { r.running.Set(r.runningN.Add(-1)) }()
		res, err := j.exec(j.ctx, j)
		// Accounting and persistence happen BEFORE finish releases
		// waiters: a job observed "done" is already registered and
		// counted.
		switch {
		case err == nil:
			r.completed.Inc()
			r.wall.Observe(time.Since(j.started).Seconds())
			r.syncCacheMetrics()
			if r.opt.Tool != "" {
				res.Manifest.Tool = r.opt.Tool
			}
			if st := r.opt.Store; st != nil {
				if _, serr := st.Add(res.Manifest); serr != nil {
					log.Default().Error("run registry", "subsystem", "job", "job", j.id, "error", serr)
				}
			}
			j.finish(StatusDone, res, nil)
		case errors.Is(err, context.Canceled):
			r.cancelled.Inc()
			j.finish(StatusCancelled, nil, err)
		default:
			r.failed.Inc()
			j.finish(StatusFailed, nil, err)
		}
	}
}

// syncCacheMetrics mirrors the shared cache's totals into the registry.
func (r *Runner) syncCacheMetrics() {
	c := r.opt.Cache
	if c == nil {
		return
	}
	st := c.Stats()
	r.reg.Gauge("cache.hits").Set(st.Hits)
	r.reg.Gauge("cache.misses").Set(st.Misses)
	r.reg.Gauge("cache.entries").Set(int64(st.Entries))
}

// submit installs the exec and hands the job to the pool, either
// shedding (try) or waiting for queue space.
func (r *Runner) submit(j *Job, exec func(context.Context, *Job) (*Result, error), try bool) (*Job, error) {
	j.exec = exec
	var err error
	if try {
		err = r.pool.TrySubmit(r.dispatch(j))
	} else {
		err = r.pool.Submit(r.dispatch(j))
	}
	if err != nil {
		r.mu.Lock()
		delete(r.jobs, j.id)
		// Concurrent submissions can append behind j between newJob and
		// here, so splice wherever the id landed — a stale id in order
		// would surface as a nil job in every later Jobs() listing.
		for i := len(r.order) - 1; i >= 0; i-- {
			if r.order[i] == j.id {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
		j.cancel()
		switch {
		case errors.Is(err, engine.ErrPoolFull):
			r.rejected.Inc()
			return nil, ErrQueueFull
		case errors.Is(err, engine.ErrPoolClosed):
			return nil, ErrClosed
		}
		return nil, err
	}
	r.submitted.Inc()
	r.queued.Set(int64(r.pool.Pending()))
	return j, nil
}

// Submit enqueues a simulation job without blocking: ErrQueueFull when
// the admission queue is at capacity, ErrClosed during shutdown.
func (r *Runner) Submit(spec Spec, live Live) (*Job, error) {
	return r.enqueueSpec(spec, live, true)
}

// Enqueue enqueues a simulation job, waiting for queue space — the
// in-process (CLI) path.
func (r *Runner) Enqueue(spec Spec, live Live) (*Job, error) {
	return r.enqueueSpec(spec, live, false)
}

func (r *Runner) enqueueSpec(spec Spec, live Live, try bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := spec.options(core.Options{TraceDir: live.TraceDir, Sinks: live.Sinks}).Validate(); err != nil {
		return nil, err
	}
	j, err := r.newJob("sim", spec.Key(), spec.Config.RunName, spec.Net(), spec.Layers(), live)
	if err != nil {
		return nil, err
	}
	return r.submit(j, r.execSpec(spec), try)
}

// Run executes a simulation job synchronously and returns its result —
// exactly what the scalesim CLI needs. The returned error is the bare
// simulation error, unwrapped by any job framing.
func (r *Runner) Run(spec Spec, live Live) (*Result, error) {
	return await(r.Enqueue(spec, live))
}

// await waits out an enqueued job and returns its result.
func await(j *Job, err error) (*Result, error) {
	if err == nil {
		err = j.Wait(context.Background())
	}
	if err != nil {
		return nil, err
	}
	return j.Result(), nil
}

// run is the spec's workload, named name, on its simulator under opt: what
// the caller owns — cache, live consumers, context — and the spec's own.
// Every job kind builds its simulators here.
func (s Spec) run(name string, opt core.Options) (core.Run, error) {
	sim, err := core.New(s.Config, s.options(opt))
	return core.Run{Sim: sim, Name: name, Topology: s.Topology, Graph: s.Graph}, err
}

// execSpec builds the job body for a simulation spec: simulate it wired
// to the runner's shared cache, the job's live consumers and its context
// (Cancel stops it at the next layer, or under Parts the next partition
// window), and assemble the manifest.
func (r *Runner) execSpec(spec Spec) func(context.Context, *Job) (*Result, error) {
	return func(ctx context.Context, j *Job) (*Result, error) {
		one, err := spec.run("", core.Options{
			Cache:    r.opt.Cache,
			TraceDir: j.live.TraceDir,
			Timeline: j.live.Timeline,
			Sinks:    j.live.Sinks,
			Obs:      j.live.Obs,
			Progress: j.progress,
			Context:  ctx,
		})
		var run core.RunResult
		var m *obsv.Manifest
		if err == nil {
			run, err = one.Simulate()
		}
		if err == nil {
			m, err = one.Sim.Manifest(run)
		}
		if err != nil {
			j.progress.Abort(err.Error())
			return nil, err
		}
		j.progress.Finish()
		return &Result{Run: run, Manifest: m}, nil
	}
}

// EnqueueSweep enqueues a whole sweep grid as one tracked job, waiting
// for queue space — the scalesweep and scaledse path. Every grid point is
// a Spec, validated as Enqueue validates one: a grid with an invalid point
// (or none) is refused before a job exists.
func (r *Runner) EnqueueSweep(label string, grid batch.Spec, live Live) (*Job, error) {
	points := grid.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("batch: no topologies")
	}
	specs := make([]Spec, len(points))
	for i, p := range points {
		specs[i] = Spec{Config: p.Config(grid.Base), Topology: p.Topology, Graph: p.Graph, Workers: grid.Parallel}
		if err := specs[i].Validate(); err != nil {
			return nil, pointError(p, err)
		}
	}
	j, err := r.newJob("sweep", "sweep:"+label, label, label, len(points), live)
	if err != nil {
		return nil, err
	}
	return r.submit(j, r.execSweep(grid, points, specs), false)
}

// RunSweep executes a sweep synchronously, returning rows and the sweep
// manifest.
func (r *Runner) RunSweep(label string, grid batch.Spec, live Live) (*Result, error) {
	return await(r.EnqueueSweep(label, grid, live))
}

// pointError names the grid point an error belongs to.
func pointError(p batch.Point, err error) error {
	return fmt.Errorf("batch: %s on %dx%d %v: %w", p.Net(), p.Array[0], p.Array[1], p.Dataflow, err)
}

// execSweep builds the sweep job body: the points run as one plan (sweep)
// under the job's context (Cancel stops a running sweep at its next
// context), and the sweep's manifest is assembled here, once.
func (r *Runner) execSweep(grid batch.Spec, points []batch.Point, specs []Spec) func(context.Context, *Job) (*Result, error) {
	return func(ctx context.Context, j *Job) (*Result, error) {
		rec := j.live.Obs
		endPhase := rec.Phase("batch.run")
		log.Default().Info("sweep start", "subsystem", "batch",
			"points", len(points), "nets", len(grid.Topologies)+len(grid.Graphs))
		rows, err := sweep(points, specs, core.Options{Cache: r.opt.Cache, Timeline: j.live.Timeline,
			Obs: rec, Progress: j.progress, Context: ctx})
		endPhase()
		var m *obsv.Manifest
		if err == nil {
			m, err = batch.NewManifest(grid.Base.Hash(), rows, rec, r.opt.Cache)
		}
		if err != nil {
			log.Default().Error("sweep failed", "subsystem", "batch", "points", len(points), "error", err)
			j.progress.Abort(err.Error())
			return nil, err
		}
		j.progress.Finish()
		m.Run = j.run
		return &Result{Rows: rows, Manifest: m}, nil
	}
}

// sweep runs the points' specs under opt as one core plan, each a run named
// by its batch.PointLabel, and condenses each run into its row.
func sweep(points []batch.Point, specs []Spec, opt core.Options) ([]batch.Row, error) {
	runs := make([]core.Run, len(specs))
	for i, spec := range specs {
		var err error
		if runs[i], err = spec.run(batch.PointLabel(points[i]), opt); err != nil {
			return nil, pointError(points[i], err)
		}
	}
	results, err := core.SimulateRuns(runs)
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	rows := make([]batch.Row, len(points))
	for i, res := range results {
		rows[i] = batch.RowOf(points[i], res)
		log.Default().Debug("point done", "subsystem", "batch", "point", runs[i].Name, "cycles", res.TotalCycles)
	}
	return rows, nil
}

// Get returns a job by ID.
func (r *Runner) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (r *Runner) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		if j, ok := r.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel stops a job: a queued job transitions to cancelled immediately
// (the worker skips it); a running job has its context cancelled and
// aborts at the next layer boundary. Cancelling a terminal job is a
// no-op.
func (r *Runner) Cancel(id string) error {
	j, ok := r.Get(id)
	if !ok {
		return ErrNotFound
	}
	if j.cancelIfQueued() {
		r.cancelled.Inc()
		return nil
	}
	j.cancel()
	return nil
}

// cancelIfQueued transitions queued → cancelled; false when the job had
// already started (or finished).
func (j *Job) cancelIfQueued() bool {
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return false
	}
	j.status = StatusCancelled
	j.err = context.Canceled
	j.finished = time.Now()
	j.started = j.finished
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	return true
}

// Close stops admission and drains: every accepted job (queued or
// running) completes — and persists its manifest — unless ctx expires
// first. Idempotent; later calls observe the same drain.
func (r *Runner) Close(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.pool.Close(ctx)
}
