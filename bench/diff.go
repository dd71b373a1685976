package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one (metric, workload) pair moved between two result files.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the runs of one side spread wider than the bound
)

// judge compares the medians of a metric's values in two files. A side
// whose own runs spread wider than the bound cannot resolve a change of
// that size, so the pair is unresolved rather than unchanged.
func judge(ms metricSpec, a, b []float64) (v verdict, spread float64) {
	ma, mb := median(a), median(b)
	spread = max(iqrShare(a), iqrShare(b))
	rel := 0.0 // B's change over A as a share of A, positive when worse
	if ma != 0 {
		rel = (mb - ma) / ma
		if ms.Better == "higher" {
			rel = -rel
		}
	}
	switch {
	case spread > ms.Bound:
		v = unresolved
	case rel > ms.Bound:
		v = worse
	case rel < -ms.Bound:
		v = better
	default:
		v = within
	}
	return v, spread
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// failedShare is failed operations over attempted, summed over a file's
// untraced runs of one workload.
func failedShare(runs []runRecord, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// diffFiles prints one row per (end-to-end metric, workload) comparing file
// B against file A under each metric's own bound, and reports whether any
// row is worse or any workload fails more operations in B than in A.
func diffFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := metricValues(a.Runs, wl.Name, ms.Name), metricValues(b.Runs, wl.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, spread := judge(ms, va, vb)
			if v == worse {
				anyWorse = true
			}
			// change is printed in the metric's own direction: +5 % on a
			// lower-is-better metric means it rose.
			change := (median(vb) - median(va)) / median(va)
			fmt.Fprintf(w, "%-20s %-24s %14.6g %14.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, ms.Name, median(va), median(vb), 100*change, 100*spread, 100*ms.Bound, v)
		}
		fa, fb := failedShare(a.Runs, wl.Name), failedShare(b.Runs, wl.Name)
		if fb > fa {
			anyWorse = true
			fmt.Fprintf(w, "%-20s %-24s %14.6g %14.6g %35s\n", wl.Name, "failed share", fa, fb, "worse: more operations fail")
		}
	}
	return anyWorse, nil
}
