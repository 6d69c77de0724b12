package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// relDiff is |a-b| as a share of the smaller magnitude.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if !(d > 0) {
		return 0
	}
	if lo := math.Min(math.Abs(a), math.Abs(b)); lo > 0 {
		return d / lo
	}
	return math.Inf(1)
}

// runAA runs every workload of the pass twice on this binary, the two
// runs of a workload back to back (the sandbox's speed drifts over
// minutes, so runs far apart would mostly measure the drift), and holds
// each pair to the benchmark's own bounds: a host metric may differ by
// its bound, a simulated metric, a digest or a trace count not at all.
func runAA(o options, stdout, stderr io.Writer) int {
	code := 0
	merged := newFileReport()
	var rows []string
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		var pair [2]*WorkloadReport
		for i := range pair {
			wr, err := runChild(o, w.name, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 1
			}
			pair[i] = wr
		}
		wa, wb := pair[0], pair[1]
		if wa == nil || wb == nil {
			continue
		}
		row := func(name string, va, vb Value, exact bool, bound string, limit float64) {
			d := relDiff(va.Value, vb.Value)
			verdict := "ok"
			switch {
			case exact && !sameBits(va.Value, vb.Value):
				verdict, code = "DIFFERS (must repeat exactly)", 1
			case !exact && d > limit:
				verdict, code = "OUTSIDE BOUND", 1
			}
			rows = append(rows, fmt.Sprintf("%-18s %-26s %14.6g %14.6g %8.2f%% %8s  %s", w.name, name, va.Value, vb.Value, 100*d, bound, verdict))
		}
		if wa.Digest != wb.Digest {
			rows = append(rows, fmt.Sprintf("%-18s %-26s %14s %14s %9s %8s  DIFFERS (must repeat exactly)", w.name, "digest", wa.Digest, wb.Digest, "", "exact"))
			code = 1
		}
		for _, l := range layerMetrics {
			if o.trace != 0 && l.Count {
				row(l.Name, wa.Layers[l.Name], wb.Layers[l.Name], true, "exact", 0)
			}
		}
		for _, m := range endToEnd {
			va, ok := wa.Metrics[m.Name]
			if !ok || o.trace != 0 {
				continue
			}
			vb := wb.Metrics[m.Name]
			if m.Kind == simMetric {
				row(m.Name, va, vb, true, "exact", 0)
				continue
			}
			row(m.Name, va, vb, false, fmtBound(m), m.Bound)
			// The spread a later -compare needs travels with the report.
			va.Spread = relDiff(va.Value, vb.Value)
			wa.Metrics[m.Name] = va
		}
		wa.Passes = 2
		merged.Workloads = append(merged.Workloads, wa)
	}
	fmt.Fprintf(stdout, "\n#### A/A comparison\n%-18s %-26s %14s %14s %9s %8s  %s\n",
		"workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if err := writeReport(o.out, merged); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if code == 0 {
		fmt.Fprintln(stdout, "A/A: the two runs of every workload agree within the benchmark's bounds")
	} else {
		fmt.Fprintln(stdout, "A/A: FAILED")
	}
	return code
}

// compareFiles prints one row per workload and end-to-end metric of two
// report files: base, new, new/base and a verdict. A host metric whose
// run-to-run spread exceeds its bound, or was never measured, is
// unresolved, not unchanged.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareReports(oldRep, newRep, stdout)
}

func compareReports(oldRep, newRep *Report, stdout io.Writer) int {
	byName := make(map[string]*WorkloadReport)
	for _, w := range newRep.Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Fprintf(stdout, "%-18s %-26s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, wo := range oldRep.Workloads {
		wn := byName[wo.Name]
		delete(byName, wo.Name)
		if wn == nil {
			fmt.Fprintf(stdout, "%-18s missing from the new report\n", wo.Name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			vo, okOld := wo.Metrics[m.Name]
			vn, okNew := wn.Metrics[m.Name]
			if !okOld || !okNew {
				continue
			}
			verdict := verdictFor(m, vo, vn, wo.Passes > 1 || wn.Passes > 1)
			if verdict == "regressed" {
				code = 1
			}
			ratio := math.NaN()
			if vo.Value != 0 {
				ratio = vn.Value / vo.Value
			}
			fmt.Fprintf(stdout, "%-18s %-26s %14.6g %14.6g %8.3f  %s\n", wo.Name, m.Name, vo.Value, vn.Value, ratio, verdict)
		}
		if wo.Digest != wn.Digest {
			fmt.Fprintf(stdout, "%-18s %-26s %14s %14s %8s  simulated results changed\n", wo.Name, "digest", wo.Digest, wn.Digest, "")
		}
	}
	for _, name := range sortedKeys(byName) {
		fmt.Fprintf(stdout, "%-18s new in the new report\n", name)
	}
	return code
}

// verdictFor judges one metric of one workload. A host metric is judged
// only when its run-to-run spread was measured (at least one of the files
// is an -aa report) and is smaller than its bound; a gain counts as one
// only when it exceeds both, as a loss does.
func verdictFor(m metricDef, base, got Value, measured bool) string {
	spread := math.Max(base.Spread, got.Spread)
	if m.Kind == hostMetric {
		if !measured {
			return "unresolved (no run-to-run spread on record: compare -aa -out reports)"
		}
		if spread > m.Bound {
			return fmt.Sprintf("unresolved (spread %.1f%% exceeds the bound %s)", 100*spread, fmtBound(m))
		}
	}
	switch w := worsening(m, base.Value, got.Value); {
	case w > m.Bound:
		return "regressed"
	case -w > math.Max(m.Bound, spread):
		return "better"
	}
	return "within bound"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
