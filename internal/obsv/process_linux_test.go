package obsv

import (
	"bytes"
	"os"
	"os/exec"
	"syscall"
	"testing"
)

// TestPeakRSSIsTheProcessOwn re-executes the test binary from a parent
// that first touches 64 MiB. The child's manifest must report the child's
// own peak, well under 64 MiB, while the child's ru_maxrss, as the parent
// reaps it, starts at the parent's peak: exec carries the old address
// space's high-water mark over, which is why the manifest reads VmHWM.
func TestPeakRSSIsTheProcessOwn(t *testing.T) {
	if os.Getenv("OBSV_RSS_CHILD") == "1" {
		if err := NewRecorder().Manifest().WriteJSON(os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	const touched = 64 << 20
	ballast := make([]byte, touched)
	for i := range ballast {
		ballast[i] = 1
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPeakRSSIsTheProcessOwn$")
	cmd.Env = append(os.Environ(), "OBSV_RSS_CHILD=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	if ballast[touched-1] != 1 { // keeps the ballast resident until the child is reaped
		t.Fatal("ballast lost")
	}
	m, err := ParseManifest(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if peak := m.Runtime.PeakRSSBytes; peak == 0 || peak >= touched/2 {
		t.Errorf("child's manifest peak_rss_bytes = %d, want its own peak, well under %d", peak, touched)
	}
	if m.Runtime.MinorFaults <= 0 {
		t.Errorf("child's manifest minor_faults = %d, want the faults that brought its pages in", m.Runtime.MinorFaults)
	}
	if maxrss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss << 10; maxrss < touched {
		t.Errorf("child's ru_maxrss as reaped = %d bytes, want at least the parent's %d", maxrss, touched)
	}
}
