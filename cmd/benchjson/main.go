// Command benchjson records `go test -bench` output in the repo's one
// benchmark trajectory. It reads the benchmark run from stdin (echoing it
// through to stdout so it still shows in the terminal and CI logs), parses
// the Benchmark* result lines, and appends one entry — ns/op, B/op and
// allocs/op per benchmark — to the github-action-benchmark data file named
// by -gha (`window.BENCHMARK_DATA = {...}` in dev/bench/data.js, the format
// the upstream benchmark-action dashboard renders):
//
//	go test -bench=. -benchmem -benchtime=1x -run='^$' . | go run ./cmd/benchjson \
//	        -commit "$(git rev-parse --short HEAD)" -commit-message "$(git log -1 --format=%s)"
//
// -compare turns the tool into a CI regression gate: instead of recording
// the run it diffs it against the newest tracked value of each series in the
// given data.js and exits 1 when ns/op or allocs/op grew by more than
// -compare-threshold (default 10%). Untracked series are notes, not
// failures, so new benchmarks don't break the gate before their first
// recorded entry, and series matching -compare-skip are tracked for the
// trajectory but never gated (wall-clock scheduling benchmarks whose
// run-to-run variance dwarfs the threshold):
//
//	... | go run ./cmd/benchjson -compare dev/bench/data.js -compare-skip '^BenchmarkFanout'
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one parsed Benchmark* line.
type BenchResult struct {
	Name        string
	Iterations  int64
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

func main() {
	gha := flag.String("gha", "dev/bench/data.js", "github-action-benchmark data.js file to append the run to")
	commit := flag.String("commit", "", "commit id recorded in the -gha entry (default 'local')")
	commitMsg := flag.String("commit-message", "", "commit message recorded in the -gha entry")
	repoURL := flag.String("repo-url", "", "repository URL recorded in the -gha file")
	compare := flag.String("compare", "", "gate mode: diff the stdin run against this data.js and exit 1 on regression; nothing is written")
	compareThreshold := flag.Float64("compare-threshold", 0.10, "relative ns/op or allocs/op increase tolerated by -compare")
	compareSkip := flag.String("compare-skip", "", "regexp of series -compare tracks but never fails on (wall-clock benchmarks too timing-dependent for the threshold)")
	flag.Parse()

	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no Benchmark lines found on stdin")
		os.Exit(1)
	}

	if *compare != "" {
		d, err := loadGHA(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		var skipRE *regexp.Regexp
		if *compareSkip != "" {
			skipRE, err = regexp.Compile(*compareSkip)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: -compare-skip:", err)
				os.Exit(2)
			}
		}
		regs, missing, skipped, checked := compareRun(results, d, *compareThreshold, skipRE)
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "benchjson: note: %q has no tracked history in %s\n", name, *compare)
		}
		for _, name := range skipped {
			fmt.Fprintf(os.Stderr, "benchjson: note: %q matches -compare-skip, tracked but not gated\n", name)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION against %s (threshold %.0f%%):\n", *compare, *compareThreshold*100)
			for _, g := range regs {
				fmt.Fprintf(os.Stderr, "  %-48s %14.1f -> %14.1f %s (+%.1f%%)\n",
					g.Series, g.Old, g.New, g.Unit, 100*g.Ratio)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% across %d tracked series (%d untracked, %d gate-exempt)\n",
			*compareThreshold*100, checked, len(missing), len(skipped))
		return
	}

	now := time.Now().UTC()
	c := ghaCommit{ID: *commit, Message: *commitMsg, Timestamp: now.Format(time.RFC3339)}
	if c.ID == "" {
		c.ID = "local"
	}
	n, err := appendGHA(*gha, *repoURL, ghaEntry{
		Commit: c, Date: now.UnixMilli(), Tool: "go", Benches: toBenches(results),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended %d benchmarks to %s (%d entries total)\n", len(results), *gha, n)
}

// The github-action-benchmark on-disk shape: a JS assignment wrapping one
// JSON object, one entry per recorded run under a named series.
const (
	ghaPrefix = "window.BENCHMARK_DATA = "
	ghaSeries = "Go Benchmark"
)

type ghaBench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

type ghaCommit struct {
	ID        string `json:"id"`
	Message   string `json:"message,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
}

type ghaEntry struct {
	Commit  ghaCommit  `json:"commit"`
	Date    int64      `json:"date"` // ms since epoch
	Tool    string     `json:"tool"`
	Benches []ghaBench `json:"benches"`
}

type ghaData struct {
	LastUpdate int64                 `json:"lastUpdate"`
	RepoURL    string                `json:"repoUrl"`
	Entries    map[string][]ghaEntry `json:"entries"`
}

// toBenches flattens parsed results into the dashboard's per-metric series:
// the base name carries ns/op, with " - B/op" / " - allocs/op" companions
// (the same naming the upstream action uses for `tool: go`).
func toBenches(results []BenchResult) []ghaBench {
	var out []ghaBench
	for _, r := range results {
		extra := fmt.Sprintf("%d times", r.Iterations)
		out = append(out, ghaBench{Name: r.Name, Value: r.NsPerOp, Unit: "ns/op", Extra: extra})
		if r.BytesPerOp > 0 {
			out = append(out, ghaBench{Name: r.Name + " - B/op", Value: float64(r.BytesPerOp), Unit: "B/op", Extra: extra})
		}
		if r.AllocsPerOp > 0 {
			out = append(out, ghaBench{Name: r.Name + " - allocs/op", Value: float64(r.AllocsPerOp), Unit: "allocs/op", Extra: extra})
		}
	}
	return out
}

// loadGHA parses an existing data.js; a missing file returns an empty
// structure and no error.
func loadGHA(path string) (ghaData, error) {
	d := ghaData{Entries: map[string][]ghaEntry{}}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return d, nil
	}
	if err != nil {
		return d, err
	}
	trimmed := bytes.TrimPrefix(bytes.TrimSpace(raw), []byte(ghaPrefix))
	if err := json.Unmarshal(trimmed, &d); err != nil {
		return d, fmt.Errorf("%s holds invalid BENCHMARK_DATA: %w", path, err)
	}
	if d.Entries == nil {
		d.Entries = map[string][]ghaEntry{}
	}
	return d, nil
}

func writeGHA(path string, d ghaData) error {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append([]byte(ghaPrefix), append(out, '\n')...), 0o644)
}

// appendGHA adds one entry to the data file, creating it when missing.
func appendGHA(path, repoURL string, e ghaEntry) (int, error) {
	d, err := loadGHA(path)
	if err != nil {
		return 0, err
	}
	if repoURL != "" {
		d.RepoURL = repoURL
	}
	d.Entries[ghaSeries] = append(d.Entries[ghaSeries], e)
	d.LastUpdate = e.Date
	return len(d.Entries[ghaSeries]), writeGHA(path, d)
}

// parse scans go-test benchmark output, echoing every line to stdout.
// Result lines look like:
//
//	BenchmarkScenarioPool-4   1   819733028 ns/op   35363528 B/op   367807 allocs/op
func parse(f *os.File) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := BenchResult{
			Name:       strings.SplitN(fields[0], "-", 2)[0],
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		if r.NsPerOp == 0 {
			continue
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
