// Package trace defines the streaming trace model shared by the simulator's
// components. A trace is a sequence of events, each an SRAM (or DRAM) access
// batch: one cycle plus the word addresses touched in that cycle. The
// cycle-accurate core produces traces; consumers aggregate them into the
// reports the original SCALE-Sim tool emits (access counts, bandwidths) or
// persist them as CSV.
//
// Traces can be very large (one event per array edge per cycle), so the
// package is built around streaming: producers push batches into Consumers
// and nothing is retained unless a consumer chooses to.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Consumer receives trace events. Cycles arrive in non-decreasing order
// within one producer's stream; a merged stream can step back between
// blocks (the DRAM read trace carries one operand's block, then the next
// one's). The addrs slice is only valid for the duration of the call;
// implementations that retain addresses must copy them.
type Consumer interface {
	Consume(cycle int64, addrs []int64)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(cycle int64, addrs []int64)

// Consume calls f.
func (f ConsumerFunc) Consume(cycle int64, addrs []int64) { f(cycle, addrs) }

// nullConsumer discards events.
type nullConsumer struct{}

func (n nullConsumer) Consume(cycle int64, addrs []int64) { ConsumeAddrs(n, cycle, addrs) }
func (nullConsumer) ConsumeRuns(int64, []Run)             {}

// Null discards all events.
var Null Consumer = nullConsumer{}

// tee fans events out to several consumers, each on its run path
// (trace.Runs), so run batches reach run-native members unexpanded and an
// element-only member gets its own materialization.
type tee struct {
	members []RunConsumer
	// sweeps is set when every member takes sweeps and none appears twice:
	// the members' states are then disjoint, so handing each the whole sweep
	// in turn leaves them as the interleaved calls would.
	sweeps bool
}

func (t *tee) Consume(cycle int64, addrs []int64) { ConsumeAddrs(t, cycle, addrs) }

func (t *tee) ConsumeRuns(cycle int64, runs []Run) {
	for _, c := range t.members {
		c.ConsumeRuns(cycle, runs)
	}
}

// ConsumeSweep hands the sweep to every member whole when all of them take
// sweeps, and otherwise unrolls it, so a live observer among the members
// (a timeline sampler, a caller's sink, the CSV writer) sees every call in
// member order, as before.
func (t *tee) ConsumeSweep(s Sweep) {
	if !t.sweeps {
		s.Unroll(t)
		return
	}
	for _, c := range t.members {
		c.(sweepConsumer).ConsumeSweep(s)
	}
}

// Tee fans events out to every non-nil consumer in order. Nil consumers
// are dropped, the sole survivor is returned directly, and nil comes back
// when nothing remains — so optional consumers compose without nil-adapter
// boilerplate at the call sites. A tee among the consumers is flattened
// into its members.
func Tee(consumers ...Consumer) Consumer {
	live := make([]Consumer, 0, len(consumers))
	for _, c := range consumers {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	t := &tee{members: make([]RunConsumer, 0, len(live))}
	for _, c := range live {
		if inner, ok := c.(*tee); ok {
			t.members = append(t.members, inner.members...)
		} else {
			t.members = append(t.members, Runs(c))
		}
	}
	t.sweeps = takesSweeps(t.members)
	return t
}

// takesSweeps reports whether every member takes sweeps and none appears
// twice. Members are compared by identity; one of a type without identity
// (not comparable) rules the sweeps out rather than panicking.
func takesSweeps(members []RunConsumer) bool {
	for i, c := range members {
		if _, ok := c.(sweepConsumer); !ok || !reflect.TypeOf(c).Comparable() {
			return false
		}
		for _, d := range members[:i] {
			if c == d {
				return false
			}
		}
	}
	return true
}

// Stats accumulates the aggregate measurements reports are built from.
type Stats struct {
	// Events counts Consume calls (distinct active cycles if the producer
	// batches per cycle).
	Events int64
	// Accesses counts individual word accesses.
	Accesses int64
	// FirstCycle and LastCycle bound the active cycles seen. FirstCycle is
	// -1 until the first event arrives.
	FirstCycle, LastCycle int64
	// MaxPerCycle is the largest single batch.
	MaxPerCycle int
}

// NewStats returns an empty Stats accumulator.
func NewStats() *Stats { return &Stats{FirstCycle: -1} }

// Consume implements Consumer.
func (s *Stats) Consume(cycle int64, addrs []int64) { ConsumeAddrs(s, cycle, addrs) }

// ConsumeRuns implements RunConsumer without expanding the runs.
func (s *Stats) ConsumeRuns(cycle int64, runs []Run) {
	words := RunWords(runs)
	if words == 0 {
		return
	}
	s.Events++
	s.Accesses += words
	if s.FirstCycle < 0 {
		s.FirstCycle = cycle
	}
	if cycle > s.LastCycle {
		s.LastCycle = cycle
	}
	if int(words) > s.MaxPerCycle {
		s.MaxPerCycle = int(words)
	}
}

// Span returns the number of cycles between the first and last access,
// inclusive; zero if no events arrived.
func (s *Stats) Span() int64 {
	if s.FirstCycle < 0 {
		return 0
	}
	return s.LastCycle - s.FirstCycle + 1
}

// Recorder retains every event; intended for tests and small traces.
type Recorder struct {
	Entries []Entry
}

// Entry is one recorded trace row.
type Entry struct {
	Cycle int64
	Addrs []int64
}

// Consume implements Consumer, copying the batch.
func (r *Recorder) Consume(cycle int64, addrs []int64) { ConsumeAddrs(r, cycle, addrs) }

// ConsumeRuns implements RunConsumer, expanding the runs into the entry.
func (r *Recorder) ConsumeRuns(cycle int64, runs []Run) {
	words := RunWords(runs)
	if words == 0 {
		return
	}
	r.Entries = append(r.Entries, Entry{
		Cycle: cycle,
		Addrs: ExpandRuns(runs, make([]int64, 0, words)),
	})
}

// Accesses returns the total recorded access count.
func (r *Recorder) Accesses() int64 {
	var n int64
	for _, e := range r.Entries {
		n += int64(len(e.Addrs))
	}
	return n
}

// Addresses returns all recorded addresses in arrival order.
func (r *Recorder) Addresses() []int64 {
	out := make([]int64, 0, r.Accesses())
	for _, e := range r.Entries {
		out = append(out, e.Addrs...)
	}
	return out
}

// Distinct returns the number of distinct addresses recorded.
func (r *Recorder) Distinct() int {
	seen := make(map[int64]struct{})
	for _, e := range r.Entries {
		for _, a := range e.Addrs {
			seen[a] = struct{}{}
		}
	}
	return len(seen)
}

// CSVWriter streams events as SCALE-Sim style trace CSV: each row is
// "cycle, addr, addr, ...". It buffers internally; call Flush when done.
// Rows are serialized directly from the runs — expanding digits into a
// reusable line buffer — so a row costs no per-event allocation.
type CSVWriter struct {
	w   *bufio.Writer
	buf []byte // reusable line buffer
	err error
}

// NewCSVWriter wraps w in a streaming trace writer.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Consume implements Consumer.
func (c *CSVWriter) Consume(cycle int64, addrs []int64) { ConsumeAddrs(c, cycle, addrs) }

// ConsumeRuns implements RunConsumer, expanding runs lazily into the line
// buffer without materializing an address slice. Non-negative progressions
// are serialized incrementally: each address copies the previous one's
// digits and adds the stride in decimal, instead of re-formatting from
// scratch — most digits of consecutive addresses are shared. The line buffer
// is sized once per event so the inner loop runs free of append growth
// checks.
func (c *CSVWriter) ConsumeRuns(cycle int64, runs []Run) {
	words := RunWords(runs)
	if c.err != nil || words == 0 {
		return
	}
	// Worst case per value: ", " plus 20 digits (int64) and a sign.
	if need := int(words)*23 + 22; cap(c.buf) < need {
		c.buf = make([]byte, 0, need)
	}
	buf := strconv.AppendInt(c.buf[:0], cycle, 10)
	for _, r := range runs {
		buf = append(buf, ',', ' ')
		start := len(buf)
		buf = strconv.AppendInt(buf, r.Base, 10)
		if r.Base < 0 || r.Stride < 0 {
			// Borrowing shrinks digit counts; keep the simple path.
			a := r.Base
			for i := int64(1); i < r.Count; i++ {
				a += r.Stride
				buf = append(buf, ',', ' ')
				buf = strconv.AppendInt(buf, a, 10)
			}
			continue
		}
		dl := len(buf) - start
		for i := int64(1); i < r.Count; i++ {
			n := len(buf)
			buf = buf[:n+2+dl]
			buf[n] = ','
			buf[n+1] = ' '
			ns := n + 2
			for j := 0; j < dl; j++ {
				buf[ns+j] = buf[start+j]
			}
			// In-place decimal addition of the stride, least significant
			// digit first, growing on carry overflow.
			carry := r.Stride
			for p := len(buf) - 1; carry > 0; p-- {
				if p < ns {
					buf = append(buf, 0)
					copy(buf[ns+1:], buf[ns:len(buf)-1])
					buf[ns] = '0'
					p = ns
					dl++
				}
				d := int64(buf[p]-'0') + carry
				buf[p] = byte('0' + d%10)
				carry = d / 10
			}
			start = ns
		}
	}
	buf = append(buf, '\n')
	_, c.err = c.w.Write(buf)
	c.buf = buf
}

// Flush drains buffered rows and returns the first write error.
func (c *CSVWriter) Flush() error {
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
}

// ParseCSV reads a trace written by CSVWriter back into a Recorder, for
// tooling and tests. For traces too large to hold, use ScanCSV.
func ParseCSV(r io.Reader) (*Recorder, error) {
	rec := &Recorder{}
	if err := ScanCSV(r, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// ScanCSV streams a trace CSV into a consumer row by row without
// materializing it: each row is compressed into runs (one reused run list)
// and handed to c's run path.
func ScanCSV(r io.Reader, c Consumer) error {
	rc := Runs(c)
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	var runs []Run
	for scanner.Scan() {
		line++
		text := scanner.Text()
		if text == "" {
			continue
		}
		var cycle int64
		runs = runs[:0]
		first := true
		for len(text) > 0 {
			var field string
			if i := strings.IndexByte(text, ','); i >= 0 {
				field, text = text[:i], text[i+1:]
			} else {
				field, text = text, ""
			}
			v, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: %w", line, err)
			}
			if first {
				cycle = v
				first = false
			} else {
				runs = AppendAddr(runs, v)
			}
		}
		if len(runs) == 0 {
			return fmt.Errorf("trace: line %d: no addresses", line)
		}
		rc.ConsumeRuns(cycle, runs)
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return nil
}
