//go:build unix

package obsv

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// readProcess fills in the process's own resource use: its peak resident
// set from VmHWM in /proc/self/status, and its page faults and CPU times
// from getrusage(RUSAGE_SELF). VmHWM is read rather than ru_maxrss, which a
// process started by fork and exec inherits from its parent's peak. A field
// that cannot be read stays zero and is left out of the document.
func readProcess(rs *RuntimeStats) {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, hwm, ok := bytes.Cut(status, []byte("\nVmHWM:")); ok {
			line, _, _ := bytes.Cut(hwm, []byte("\n"))
			if f := bytes.Fields(line); len(f) == 2 && string(f[1]) == "kB" {
				if kb, err := strconv.ParseUint(string(f[0]), 10, 64); err == nil {
					rs.PeakRSSBytes = kb << 10
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return
	}
	rs.MinorFaults, rs.MajorFaults = int64(ru.Minflt), int64(ru.Majflt)
	rs.UserSeconds = time.Duration(ru.Utime.Nano()).Seconds()
	rs.SystemSeconds = time.Duration(ru.Stime.Nano()).Seconds()
}
