package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// scanRows is the per-field reference for ScanCSV: the same line splitting,
// then every comma-separated field parsed on its own (one trailing comma,
// as SCALE-Sim writes rows, allowed), blank lines skipped.
func scanRows(input string) ([]Entry, bool) {
	var out []Entry
	lines := bufio.NewScanner(strings.NewReader(input))
	lines.Buffer(nil, 1<<24)
	for lines.Scan() {
		if lines.Text() == "" {
			continue
		}
		var vals []int64
		for _, f := range strings.Split(strings.TrimSuffix(lines.Text(), ","), ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return nil, false
			}
			vals = append(vals, v)
		}
		if len(vals) < 2 {
			return nil, false
		}
		out = append(out, Entry{Cycle: vals[0], Addrs: vals[1:]})
	}
	return out, lines.Err() == nil
}

// FuzzScanCSV checks the trace reader never panics, names the line of every
// error, reads what a per-field parse reads, and that an accepted trace
// survives a round trip: CSVWriter re-serializes the runs ScanCSV produced
// and a second scan records the same entries.
func FuzzScanCSV(f *testing.F) {
	f.Add("0, 1, 2, 3\n5, 10\n")
	f.Add("3, 9, 6, 3, 0, -3\n")                            // a negative stride across zero
	f.Add("1, 7, 7, 7, 8, 8\n")                             // duplicate addresses
	f.Add("2, 9223372036854775807, -9223372036854775808\n") // the int64 edges, upward
	f.Add("2, -9223372036854775808, 9223372036854775807\n") // and downward
	f.Add("4, 9223372036854775806, 9223372036854775807, -9223372036854775808\n")
	f.Add("\n1, 2\n\n7,8 ,  9\r\n")
	f.Add("7\n")
	f.Add("6, 1, 2,\n6, 3,,\n")
	f.Add("1, two\n")
	f.Add("1, 99999999999999999999\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		first := &Recorder{}
		var csv bytes.Buffer
		w := NewCSVWriter(&csv)
		err := ScanCSV(strings.NewReader(input), Tee(first, w))
		want, ok := scanRows(input)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: line ") {
				t.Fatalf("error does not name its line: %v", err)
			}
			if ok {
				t.Fatalf("refused %q, which parses field by field: %v", input, err)
			}
			return
		}
		if !ok || !reflect.DeepEqual(first.Entries, want) {
			t.Fatalf("scanned %+v, field by field %+v (ok %v)", first.Entries, want, ok)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		second, err := ParseCSV(&csv)
		if err != nil {
			t.Fatalf("re-scan of a written trace: %v\n%s", err, csv.Bytes())
		}
		if !reflect.DeepEqual(second.Entries, first.Entries) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", first.Entries, second.Entries)
		}
	})
}
