package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of one (workload, metric) pair, after the choosing-metrics rules.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric. B is better when it wins at
// least nine tenths of all pairs and the medians differ by more than A's
// own interquartile distance; worse when its median is worse than A's by
// more than bound (a share of A's median). When A's spread is wider than
// the bound nothing can be concluded — unresolved — unless every B run
// beats every A run.
func verdict(a, b []float64, bound float64, higherBetter bool) (string, float64) {
	win := winShare(a, b, higherBetter)
	qa1, ma, qa3 := quartiles(a)
	_, mb, _ := quartiles(b)
	diff := mb - ma
	if !higherBetter {
		diff = -diff
	}
	allBetter := win == 1
	if ma != 0 && (qa3-qa1)/math.Abs(ma) > bound && !allBetter {
		return verdictUnresolved, win
	}
	if win >= 0.9 && diff > qa3-qa1 {
		return verdictBetter, win
	}
	if ma != 0 && -diff/math.Abs(ma) > bound {
		return verdictWorse, win
	}
	return verdictUnchanged, win
}

// winShare is the share of all (a, b) pairs in which b reads better; ties
// count for neither side.
func winShare(a, b []float64, higherBetter bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y > x) || (!higherBetter && y < x) {
				wins++
			}
		}
	}
	return float64(wins) / float64(len(a)*len(b))
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// byWorkload collects each untraced workload's values of one metric.
func byWorkload(recs []runRecord, metric string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], v.Value)
		}
	}
	return out
}

// runCompare prints, for every workload and end-to-end metric, each side's
// median and quartiles, B's pairwise win share over A and the verdict, and
// fails when any pair is worse.
func runCompare(w io.Writer, bf benchmarkFile, pathA, pathB string) error {
	recA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", pathA, describe(recA), pathB, describe(recB))
	fmt.Fprintf(w, "%-14s %-18s %-34s %-34s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	var worse []string
	for _, m := range bf.EndToEnd {
		as, bs := byWorkload(recA, m.Name), byWorkload(recB, m.Name)
		var names []string
		for wl := range as {
			if _, ok := bs[wl]; ok {
				names = append(names, wl)
			}
		}
		sort.Strings(names)
		for _, wl := range names {
			a, b := as[wl], bs[wl]
			v, win := verdict(a, b, m.Bound, m.Better == "higher")
			fmt.Fprintf(w, "%-14s %-18s %-34s %-34s %5.0f%%  %s (bound %.0f%%, A spread %.1f%%, B spread %.1f%%)\n",
				wl, m.Name, quartileText(a, m.Unit), quartileText(b, m.Unit), 100*win, v, 100*m.Bound, 100*spread(a), 100*spread(b))
			if v == verdictWorse {
				worse = append(worse, wl+"/"+m.Name)
			}
		}
	}
	// The diagnostics have no bound, so they can read better but never worse:
	// they are where a claimed speed-up shows.
	fmt.Fprintf(w, "diagnostics (no bound):\n")
	for _, d := range comparedDiagnostics {
		as, bs := byWorkloadDiagnostic(recA, d.name), byWorkloadDiagnostic(recB, d.name)
		var names []string
		for wl := range as {
			if _, ok := bs[wl]; ok {
				names = append(names, wl)
			}
		}
		sort.Strings(names)
		for _, wl := range names {
			a, b := as[wl], bs[wl]
			v, win := verdict(a, b, math.Inf(1), d.higherBetter)
			if v != verdictBetter {
				v = "not better"
			}
			fmt.Fprintf(w, "%-14s %-18s %-34s %-34s %5.0f%%  %s (A spread %.1f%%, B spread %.1f%%)\n",
				wl, d.name, quartileText(a, d.unit), quartileText(b, d.unit), 100*win, v, 100*spread(a), 100*spread(b))
		}
	}
	if len(worse) > 0 {
		return fmt.Errorf("B is worse than A beyond the bound on %s", strings.Join(worse, ", "))
	}
	return nil
}

// comparedDiagnostics are the diagnostics of untraced runs --compare reports
// beside the end-to-end metrics.
var comparedDiagnostics = []struct {
	name, unit   string
	higherBetter bool
}{
	{"user_cpu_ms_per_op", "ms", false},
	{"cpu_ms_per_op", "ms", false},
	{"ops_per_s", "1/s", true},
	{"op_p50_ms", "ms", false},
	{"setup_wall_s", "s", false},
	{"peak_rss_mb", "MB", false},
}

// byWorkloadDiagnostic collects each untraced workload's values of one
// diagnostic.
func byWorkloadDiagnostic(recs []runRecord, name string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		if v, ok := r.Conditions.Diagnostics[name]; ok && !r.Trace {
			out[r.Workload] = append(out[r.Workload], v)
		}
	}
	return out
}

func quartileText(xs []float64, unit string) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s n=%d", q2, q1, q3, unit, len(xs))
}

// describe summarizes the run conditions of one side.
func describe(recs []runRecord) string {
	var steal []float64
	revs := make(map[string]bool)
	for _, r := range recs {
		steal = append(steal, r.Conditions.StealShare)
		revs[r.Conditions.Revision] = true
	}
	var rev []string
	for r := range revs {
		if r == "" {
			r = "unstamped"
		}
		rev = append(rev, r)
	}
	sort.Strings(rev)
	return fmt.Sprintf("%d runs, revision %s, median steal share %.3f", len(recs), strings.Join(rev, ","), median(steal))
}
