//go:build !unix

package obsv

// readProcess leaves the process's resource use out where neither /proc
// nor getrusage exists.
func readProcess(*RuntimeStats) {}
