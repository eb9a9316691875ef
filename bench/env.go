package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// buildDir holds what the harness builds and writes while it runs. It sits
// inside the checkout so a run touches nothing outside it; the root
// .gitignore names it.
const buildDir = ".bench_build"

// binaries are the shipped programs the end-to-end numbers execute.
var binaries = []string{"scalesim", "scalestudy", "scalesimd"}

// environment is recorded beside every result so two documents can be
// told apart before their numbers are compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	ScratchFS  string `json:"scratch_fs"`
}

// harness is the state shared by every workload of one invocation.
type harness struct {
	root    string // checkout root, absolute
	bin     string // directory of the built binaries
	scratch string // this invocation's scratch directory, removed at exit
	env     environment

	mu      sync.Mutex
	running *daemon // the scalesimd this harness started, if any
}

// newHarness checks that it runs from the root of a checkout, builds the
// binaries and creates the scratch directory. go build is not part of any
// metric: whether the build cache is warm is not the program's cost.
func newHarness(seed int64, secs int) (*harness, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "bench/golden.json", "cmd/scalesim"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("run from the repository root: %w", err)
		}
	}
	h := &harness{root: root, bin: filepath.Join(root, buildDir, "bin")}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", h.bin + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	if h.scratch, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-"); err != nil {
		return nil, err
	}
	h.env = environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    secs,
		ScratchFS:  fsType(h.scratch),
	}
	return h, nil
}

// close stops a daemon still running and removes the invocation's
// scratch directory.
func (h *harness) close() {
	h.mu.Lock()
	d := h.running
	h.mu.Unlock()
	if d != nil {
		d.stop()
	}
	_ = os.RemoveAll(h.scratch)
}

// dir returns a fresh directory under the scratch directory.
func (h *harness) dir(pattern string) (string, error) {
	return os.MkdirTemp(h.scratch, pattern+"-")
}

// commit names the checked-out commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType returns the filesystem type of the mount holding path, from
// /proc/mounts, or "unknown". CLI outputs and the cache directory are
// written there, so a tmpfs and a disk give different numbers.
func fsType(path string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		under := mnt == "/" || path == mnt || strings.HasPrefix(path, mnt+"/")
		if under && len(mnt) >= len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

var spinSink uint64

// spin times a fixed arithmetic loop. A workload whose before and after
// spins differ by more than a tenth ran while the machine's speed moved,
// and is marked noisy.
func spin() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(t0)
}

func noisy(before, after time.Duration) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > 0.10*float64(lo)
}
