package job

import (
	"context"
	"strings"
	"sync"
	"time"

	"scalesim/internal/obsv"
)

// Status is a job's lifecycle state. Transitions are monotonic:
// queued → running → one of {done, failed, cancelled}, or queued →
// cancelled when the job is pulled from the queue before starting.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job is one tracked execution of a Spec (or a sweep) on a Runner. Its
// mutable state — status, timestamps, result — is snapshot via Info;
// Wait blocks until the job reaches a terminal state.
type Job struct {
	id   string
	key  string
	run  string
	net  string
	kind string // "sim" or "sweep"

	units int

	// exec performs the actual work; installed by the Runner at submit
	// time so simulation jobs and sweep jobs share one lifecycle.
	exec func(context.Context, *Job) (*Result, error)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// buf collects progress lines when the submitter did not provide a
	// live Progress writer (the daemon path); nil otherwise.
	buf      *lineBuffer
	progress *obsv.Progress

	live Live

	mu        sync.Mutex
	status    Status
	err       error
	result    *Result
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the job's identifier, stable for the life of the Runner.
func (j *Job) ID() string { return j.id }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the terminal error (nil unless status is failed or
// cancelled).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the completed result, or nil before StatusDone.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// then returns the job's terminal error (nil on success).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Info is a JSON-friendly snapshot of a job's state — the body of the
// daemon's GET /jobs/{id}.
type Info struct {
	ID        string   `json:"id"`
	Key       string   `json:"key"`
	Kind      string   `json:"kind"`
	Run       string   `json:"run,omitempty"`
	Net       string   `json:"net,omitempty"`
	Units     int      `json:"units"`
	Status    Status   `json:"status"`
	Error     string   `json:"error,omitempty"`
	Submitted string   `json:"submitted"`
	Started   string   `json:"started,omitempty"`
	Finished  string   `json:"finished,omitempty"`
	Seconds   float64  `json:"seconds,omitempty"`
	Progress  []string `json:"progress,omitempty"`
}

// Info snapshots the job.
func (j *Job) Info() Info {
	j.mu.Lock()
	in := Info{
		ID:        j.id,
		Key:       j.key,
		Kind:      j.kind,
		Run:       j.run,
		Net:       j.net,
		Units:     j.units,
		Status:    j.status,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		in.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		in.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		in.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		in.Seconds = j.finished.Sub(j.started).Seconds()
	}
	j.mu.Unlock()
	if j.buf != nil {
		in.Progress = j.buf.Lines()
	}
	return in
}

// ProgressSince returns the buffered progress lines not yet covered by
// the cursor, plus the advanced cursor. The cursor counts lines ever
// written, not lines retained: the progress buffer is a sliding tail,
// so a reader pacing itself by Info().Progress length would skip or
// stall once the tail trims. Jobs with a live Progress writer buffer
// nothing and always return an empty batch.
func (j *Job) ProgressSince(after int) ([]string, int) {
	if j.buf == nil {
		return nil, after
	}
	return j.buf.LinesSince(after)
}

// markRunning transitions queued → running; returns false when the job
// was already terminal (cancelled while queued), in which case the
// worker must skip it.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state exactly once and releases waiters.
func (j *Job) finish(st Status, res *Result, err error) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.mu.Unlock()
	close(j.done)
}

// lineBuffer is an io.Writer retaining the most recent complete lines
// written to it — the backing store for a job's progress tail when no
// live writer was supplied. Lines carry absolute sequence numbers
// (total counts every line ever written, trimmed or not) so readers
// can follow the stream through the sliding tail. Safe for concurrent
// use.
type lineBuffer struct {
	mu    sync.Mutex
	max   int
	part  strings.Builder
	lines []string
	total int
}

func newLineBuffer(max int) *lineBuffer { return &lineBuffer{max: max} }

func (b *lineBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range string(p) {
		if c != '\n' {
			b.part.WriteRune(c)
			continue
		}
		b.lines = append(b.lines, b.part.String())
		b.total++
		b.part.Reset()
		if len(b.lines) > b.max {
			b.lines = b.lines[len(b.lines)-b.max:]
		}
	}
	return len(p), nil
}

// Lines returns the retained tail, oldest first.
func (b *lineBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.lines...)
}

// LinesSince returns the retained lines whose absolute sequence number
// is at least after, plus the next cursor (the total line count). Lines
// already trimmed out of the tail are gone — the cursor still advances
// past them, so a slow reader skips rather than stalls.
func (b *lineBuffer) LinesSince(after int) ([]string, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.total - len(b.lines)
	if after < first {
		after = first
	}
	if after > b.total {
		after = b.total
	}
	return append([]string(nil), b.lines[after-first:]...), b.total
}
