package disk

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriters runs both policies through the outcomes a caller can see:
// success, a failing write callback, a write the callback ignored, and a
// target that cannot be written. A target is never left partial — absent
// stays absent, old content stays intact — and no temp file survives any
// outcome.
func TestWriters(t *testing.T) {
	boom := errors.New("boom")
	ok := Bytes([]byte("new\n"))
	failing := func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return boom
	}
	for _, fn := range []struct {
		name  string
		write func(string, func(io.Writer) error) error
	}{
		{"Create", Create},
		{"Replace", Replace},
	} {
		for _, c := range []struct {
			name  string
			old   string // "" = target absent
			dir   bool   // target is a directory
			write func(io.Writer) error
			fails bool
		}{
			{name: "fresh", write: ok},
			{name: "overwrite", old: "old\n", write: ok},
			{name: "write error, target absent", write: failing, fails: true},
			{name: "write error, target present", old: "old\n", write: failing, fails: true},
			{name: "target is a directory", dir: true, write: ok, fails: true},
		} {
			t.Run(fn.name+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "doc.json")
				switch {
				case c.dir:
					if err := os.Mkdir(path, 0o755); err != nil {
						t.Fatal(err)
					}
				case c.old != "":
					if err := os.WriteFile(path, []byte(c.old), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				err := fn.write(path, c.write)
				if (err != nil) != c.fails {
					t.Fatalf("error = %v, want failure %v", err, c.fails)
				}
				if c.fails && !c.dir && !errors.Is(err, boom) {
					t.Errorf("error = %v, want the callback's", err)
				}
				names, _ := os.ReadDir(dir)
				if len(names) > 1 || (len(names) == 1 && names[0].Name() != "doc.json") {
					t.Errorf("left behind: %v", names)
				}
				got, rerr := os.ReadFile(path)
				switch {
				case !c.fails:
					if string(got) != "new\n" {
						t.Errorf("content = %q", got)
					}
				case c.dir:
					if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
						t.Errorf("directory target disturbed: %v", err)
					}
				case c.old == "":
					if !os.IsNotExist(rerr) {
						t.Errorf("failed %s created the target: %q", fn.name, got)
					}
				default:
					if string(got) != c.old {
						t.Errorf("failed %s changed the target: %q", fn.name, got)
					}
				}
			})
		}
	}
}

// TestIgnoredWriteErrorFails: a callback that drops its write errors (the
// fmt.Fprintf loops of the figure harnesses) still fails the call — the
// buffered writer holds the first error until the flush.
func TestIgnoredWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	err := Create("/dev/full", func(w io.Writer) error {
		_, _ = w.Write([]byte("dropped on the floor\n"))
		return nil
	})
	if err == nil {
		t.Error("a write to a full device was reported as written")
	}
}

// TestCreateKeepsPermissions: a replaced output keeps its old file's mode,
// and a new one gets os.Create's.
func TestCreateKeepsPermissions(t *testing.T) {
	dir := t.TempDir()
	path, ref := filepath.Join(dir, "doc.csv"), filepath.Join(dir, "ref.csv")
	f, err := os.Create(ref)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := Create(path, Bytes([]byte("a\n"))); err != nil {
		t.Fatal(err)
	}
	want, _ := os.Stat(ref)
	if fi, _ := os.Stat(path); fi.Mode() != want.Mode() {
		t.Errorf("new output mode %v, os.Create gives %v", fi.Mode(), want.Mode())
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := Create(path, Bytes([]byte("b\n"))); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o640 {
		t.Errorf("replaced output mode %v, want the old file's -rw-r-----", fi.Mode())
	}
}

// TestCreateDevice: an existing target that is not a regular file — a
// device standing for stdout or a discard — is written in place; no temp
// file is made beside it.
func TestCreateDevice(t *testing.T) {
	if _, err := os.Stat(os.DevNull); err != nil {
		t.Skip("no", os.DevNull)
	}
	if err := Create(os.DevNull, Bytes([]byte("discarded\n"))); err != nil {
		t.Fatalf("Create(%s) = %v", os.DevNull, err)
	}
	if fi, err := os.Stat(os.DevNull); err != nil || fi.Mode().IsRegular() {
		t.Errorf("%s is no longer a device: %v, %v", os.DevNull, fi, err)
	}
}

// TestMissingParent: neither policy creates directories, and Create's
// error names the file asked for, not its temp file.
func TestMissingParent(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "missing", "doc")
	for name, write := range map[string]func(string, func(io.Writer) error) error{"Create": Create, "Replace": Replace} {
		err := write(target, Bytes(nil))
		if err == nil {
			t.Errorf("%s under a missing directory succeeded", name)
		}
		var pe *os.PathError
		if name == "Create" && (!errors.As(err, &pe) || pe.Path != target) {
			t.Errorf("Create's error %v does not name %s, the file asked for", err, target)
		}
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Errorf("created: %v", names)
	}
}
