package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scalesim/internal/trace"
)

// Stream names one per-job trace stream a sink can attach to. The values
// are the stream suffixes of the original tool's trace file names.
type Stream string

// The five streams one layer simulation produces.
const (
	SRAMReadIfmap  Stream = "sram_read_ifmap"
	SRAMReadFilter Stream = "sram_read_filter"
	SRAMWriteOfmap Stream = "sram_write_ofmap"
	DRAMRead       Stream = "dram_read"
	DRAMWrite      Stream = "dram_write"
)

// Streams lists every stream in canonical order.
var Streams = []Stream{SRAMReadIfmap, SRAMReadFilter, SRAMWriteOfmap, DRAMRead, DRAMWrite}

// Per-operand DRAM streams: split views of DRAMRead/DRAMWrite by the SRAM
// buffer that caused the traffic. They are not part of Streams (no trace
// CSVs by default) and stay silent unless a sink attaches to them — the
// simulator only wires the memory system's per-operand taps when a
// consumer is present, so the default path pays nothing.
const (
	DRAMReadIfmap  Stream = "dram_read_ifmap"
	DRAMReadFilter Stream = "dram_read_filter"
	DRAMWriteOfmap Stream = "dram_write_ofmap"
)

// Job identifies the unit of work a sink set is being built for: its
// position in the execution order plus the run and layer names sinks may
// use for labeling (e.g. trace file names).
type Job struct {
	// Index is the job's position in the ordered job list.
	Index int
	// Run is the configuration's run name.
	Run string
	// Layer is the layer (or grid point) name.
	Layer string
}

// SinkSet is the set of trace consumers wired to one job's streams,
// together with the lifecycle hooks that flush and release them. A SinkSet
// belongs to exactly one job: factories build a fresh one per job, so no
// consumer is ever shared across worker goroutines.
type SinkSet struct {
	streams map[Stream][]trace.Consumer
	finish  []func() error
	closers []func()
}

// NewSinkSet returns an empty sink set.
func NewSinkSet() *SinkSet {
	return &SinkSet{streams: make(map[Stream][]trace.Consumer)}
}

// Attach wires a consumer to a stream; nil consumers are ignored.
func (s *SinkSet) Attach(st Stream, c trace.Consumer) {
	if c != nil {
		s.streams[st] = append(s.streams[st], c)
	}
}

// OnFinish registers a hook run by Finish once the job completes
// successfully (e.g. flushing a trace file). Hooks run in registration
// order; the first error wins.
func (s *SinkSet) OnFinish(f func() error) { s.finish = append(s.finish, f) }

// OnClose registers a hook run by Close regardless of outcome (e.g.
// closing a file descriptor). Hooks run in reverse registration order.
func (s *SinkSet) OnClose(f func() error) { s.closers = append(s.closers, func() { _ = f() }) }

// Consumer returns the stream's attached consumers as one consumer, or nil
// when none are attached.
func (s *SinkSet) Consumer(st Stream) trace.Consumer {
	return trace.Tee(s.streams[st]...)
}

// Tap merges a primary consumer with the stream's attached sinks. It
// returns primary unchanged when nothing is attached, and nil when there is
// nothing at all to feed.
func (s *SinkSet) Tap(st Stream, primary trace.Consumer) trace.Consumer {
	return trace.Tee(append([]trace.Consumer{primary}, s.streams[st]...)...)
}

// Finish runs the finish hooks in order, returning the first error.
func (s *SinkSet) Finish() error {
	for _, f := range s.finish {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// Close runs the close hooks in reverse order. Safe to call after Finish
// and on partially-built sets.
func (s *SinkSet) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// Factory wires sinks for one job into a SinkSet. A factory runs once per
// job — possibly from concurrent worker goroutines, so it must be safe to
// call concurrently — and every consumer it attaches is used by that job
// only.
type Factory func(job Job, set *SinkSet) error

// Registry is an ordered, composable list of sink factories: the engine's
// replacement for ad-hoc consumer wiring. NewSinkSet applies every factory
// to a fresh set.
type Registry []Factory

// NewSinkSet builds the sink set for one job, applying each factory in
// order. On error the partially-built set is closed.
func (r Registry) NewSinkSet(job Job) (*SinkSet, error) {
	set := NewSinkSet()
	for _, f := range r {
		if f == nil {
			continue
		}
		if err := f(job, set); err != nil {
			set.Close()
			return nil, err
		}
	}
	return set, nil
}

// CSVTrace returns a factory that writes each of the given streams (all
// five when none are named) to <dir>/<run>_<layer>_<stream>.csv, creating
// the directory on first use — the original tool's per-layer trace layout.
func CSVTrace(dir string, streams ...Stream) Factory {
	if len(streams) == 0 {
		streams = Streams
	}
	return func(job Job, set *SinkSet) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		for _, st := range streams {
			name := fmt.Sprintf("%s_%s_%s.csv", sanitize(job.Run), sanitize(job.Layer), st)
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return fmt.Errorf("engine: %w", err)
			}
			w := trace.NewCSVWriter(f)
			set.Attach(st, w)
			set.OnFinish(func() error {
				if err := w.Flush(); err != nil {
					return fmt.Errorf("engine: writing trace %s: %w", f.Name(), err)
				}
				return nil
			})
			set.OnClose(f.Close)
		}
		return nil
	}
}

// sanitize makes a string safe as a file-name component.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}
