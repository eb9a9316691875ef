package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain implements "bench compare A.json B.json": one row per
// workload and end-to-end metric with both values, B over A, the bound and
// a verdict. It returns the exit code: 1 when any row is worse.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var docs [2]document
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	rows, worse := compare(docs[0], docs[1])
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %9.4f %5.0f%%  %s\n",
			r.workload, r.metric, r.a, r.b, r.ratio, 100*r.bound, r.verdict)
	}
	if worse {
		return 1
	}
	return 0
}

type compareRow struct {
	workload, metric string
	a, b, ratio      float64 // ratio is b/a: its base is document A
	bound            float64
	verdict          string // ok, worse or unresolved
}

// compare gates document b against a on every timed workload of a. A row
// is worse when b's value is worse than a's by more than the metric's
// bound, a failed op or a reference error in b makes every row of that
// workload worse, and a row is unresolved when either run was marked
// noisy or lacks the workload or metric, since one run cannot say which
// side moved.
func compare(a, b document) (rows []compareRow, worse bool) {
	timed := func(d document) map[string]*result {
		m := map[string]*result{}
		for _, r := range d.Workloads {
			if !r.Trace {
				m[r.Name] = r
			}
		}
		return m
	}
	am, bm := timed(a), timed(b)
	for _, w := range workloads {
		ra := am[w.Name]
		if ra == nil {
			continue
		}
		rb := bm[w.Name]
		for _, d := range endToEnd {
			row := compareRow{workload: w.Name, metric: d.Name, bound: d.Bound, verdict: "unresolved"}
			va, okA := ra.Metrics[d.Name]
			row.a = va.Value
			if rb != nil {
				vb, okB := rb.Metrics[d.Name]
				row.b, row.ratio = vb.Value, ratio(vb.Value, va.Value)
				switch {
				case !rb.Correct:
					row.verdict = "worse"
				case !okA || !okB || va.Value == 0 || ra.Noisy || rb.Noisy:
				case d.Better == lower && row.ratio > 1+d.Bound,
					d.Better == higher && row.ratio < 1-d.Bound:
					row.verdict = "worse"
				default:
					row.verdict = "ok"
				}
			}
			worse = worse || row.verdict == "worse"
			rows = append(rows, row)
		}
	}
	return rows, worse
}
