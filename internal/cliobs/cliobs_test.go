package cliobs

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// captureStderr runs f with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// begin registers the run-bracket flags the way a tool does, parses args
// and begins the run.
func begin(t *testing.T, tool string, args ...string) (*Flags, func(*error)) {
	t.Helper()
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	f := Register(fs)
	f.RegisterPprof(fs, "pprof")
	f.RegisterTimeline(fs, "timeline")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	_, _, end, err := f.Begin(tool, tool)
	if err != nil {
		t.Fatal(err)
	}
	return f, end
}

// TestPprofNotice: -pprof is served for the bracket and announced on
// stderr under the tool's own name, for each tool that registers it.
func TestPprofNotice(t *testing.T) {
	for _, tool := range []string{"scalesim", "scalesweep", "scalestudy"} {
		out := captureStderr(t, func() {
			_, end := begin(t, tool, "-pprof", "127.0.0.1:0")
			var runErr error
			end(&runErr)
		})
		want := regexp.MustCompile(`^` + tool + `: pprof at http://127\.0\.0\.1:\d+/debug/pprof/\n$`)
		if !want.MatchString(out) {
			t.Errorf("%s: stderr %q", tool, out)
		}
	}
}

// TestTimelineCloseIsTheRunsError: a timeline that cannot be flushed fails
// the run at the end of the bracket; an earlier run error is kept; a
// healthy timeline is a complete document once end returns.
func TestTimelineCloseIsTheRunsError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	f, end := begin(t, "scalesim", "-timeline", "/dev/full")
	tlw, err := f.OpenTimeline()
	if err != nil || tlw == nil {
		t.Fatalf("OpenTimeline = %v, %v", tlw, err)
	}
	tlw.Process("p")
	var runErr error
	end(&runErr)
	if runErr == nil {
		t.Error("a timeline written to a full device left the run's error nil")
	}

	earlier := errors.New("the run failed first")
	f, end = begin(t, "scalesim", "-timeline", "/dev/full")
	if _, err := f.OpenTimeline(); err != nil {
		t.Fatal(err)
	}
	runErr = earlier
	end(&runErr)
	if runErr != earlier {
		t.Errorf("run error replaced by %v", runErr)
	}

	path := filepath.Join(t.TempDir(), "t.json")
	f, end = begin(t, "scalesim", "-timeline", path, "-timeline-window", "8")
	if tlw, err = f.OpenTimeline(); err != nil {
		t.Fatal(err)
	}
	tlw.Process("p")
	runErr = nil
	end(&runErr)
	data, err := os.ReadFile(path)
	if runErr != nil || err != nil || !bytes.HasSuffix(bytes.TrimSpace(data), []byte("]")) {
		t.Errorf("healthy timeline: run error %v, read error %v, document %q", runErr, err, data)
	}

	// Without the flag there is no writer and nothing to close.
	f, end = begin(t, "scalesim")
	if tlw, err := f.OpenTimeline(); tlw != nil || err != nil {
		t.Errorf("OpenTimeline without -timeline = %v, %v", tlw, err)
	}
	end(&runErr)
}

// TestSnapshotStreamIsTheRunsError: a -metrics-jsonl stream that cannot be
// written fails the run at the end of the bracket; an earlier run error is
// kept; a healthy stream holds its final snapshot once end returns.
func TestSnapshotStreamIsTheRunsError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	_, end := begin(t, "scalesim", "-metrics-jsonl", "/dev/full")
	var runErr error
	end(&runErr)
	if runErr == nil {
		t.Error("a snapshot stream written to a full device left the run's error nil")
	}

	earlier := errors.New("the run failed first")
	_, end = begin(t, "scalesim", "-metrics-jsonl", "/dev/full")
	runErr = earlier
	end(&runErr)
	if runErr != earlier {
		t.Errorf("run error replaced by %v", runErr)
	}

	path := filepath.Join(t.TempDir(), "m.jsonl")
	_, end = begin(t, "scalesim", "-metrics-jsonl", path)
	runErr = nil
	end(&runErr)
	data, err := os.ReadFile(path)
	if runErr != nil || err != nil || !bytes.HasSuffix(data, []byte("}\n")) {
		t.Errorf("healthy stream: run error %v, read error %v, document %q", runErr, err, data)
	}
}

// TestOutput: no path means stdout, which a failed write leaves empty; a
// path is a checked file.
func TestOutput(t *testing.T) {
	hello := func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }
	var stdout bytes.Buffer
	if err := Output(&stdout, "", hello); err != nil || stdout.String() != "hello\n" {
		t.Errorf("stdout: %q, %v", stdout.String(), err)
	}
	stdout.Reset()
	partial := func(w io.Writer) error {
		if err := hello(w); err != nil {
			return err
		}
		return errors.New("second row failed")
	}
	if err := Output(&stdout, "", partial); err == nil || stdout.Len() != 0 {
		t.Errorf("failed write: stdout %q, %v", stdout.String(), err)
	}
	path := filepath.Join(t.TempDir(), "out.csv")
	stdout.Reset()
	if err := Output(&stdout, path, hello); err != nil || stdout.Len() != 0 {
		t.Errorf("file: stdout %q, %v", stdout.String(), err)
	}
	if data, _ := os.ReadFile(path); string(data) != "hello\n" {
		t.Errorf("file content %q", data)
	}
	if err := Output(&stdout, filepath.Join(filepath.Dir(path), "missing", "out.csv"), hello); err == nil {
		t.Error("missing parent directory accepted")
	}
}
