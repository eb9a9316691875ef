package obsv

import (
	"bytes"
	"strings"
	"testing"
)

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sim")
	p.Start(2)
	p.Step("conv1")
	p.Step("conv2")
	p.Finish()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.Contains(lines[0], "sim: [1/2] conv1") ||
		!strings.Contains(lines[1], "sim: [2/2] conv2") ||
		!strings.Contains(lines[2], "sim: done, 2 units") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestProgressWithoutTotal(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep")
	p.Step("pt")
	if !strings.Contains(buf.String(), "sweep: [1] pt") {
		t.Errorf("output: %q", buf.String())
	}
}

// TestProgressAbortTerminates is the regression test for aborted sweeps:
// an error or panic path must still emit a final terminating line, and
// exactly one terminator wins regardless of Finish/Abort ordering.
func TestProgressAbortTerminates(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep")
	p.Start(4)
	p.Step("pt0")
	func() {
		defer func() { _ = recover() }()
		defer p.Abort("boom") // the deferred error-path terminator
		panic("simulated layer panic")
	}()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "sweep: aborted after 1/4 units") || !strings.Contains(last, "boom") {
		t.Fatalf("aborted sweep left progress unterminated: %q", buf.String())
	}

	// Abort after Finish is a no-op: success paths that Finish inline and
	// Abort from a defer emit exactly one terminator.
	buf.Reset()
	p.Start(1)
	p.Step("pt")
	p.Finish()
	p.Abort("late abort")
	p.Finish()
	out := buf.String()
	if strings.Contains(out, "aborted") || strings.Count(out, "done,") != 1 {
		t.Errorf("terminator not idempotent:\n%s", out)
	}

	// And the reverse: Finish after Abort stays silent.
	buf.Reset()
	p.Start(1)
	p.Abort("failed early")
	p.Finish()
	out = buf.String()
	if strings.Count(out, "aborted") != 1 || strings.Contains(out, "done,") {
		t.Errorf("Finish after Abort emitted a second terminator:\n%s", out)
	}

	// Nil progress stays silent on every path.
	var np *Progress
	np.Abort("x")
	np.Finish()
}
