package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/obs"
)

// TestOutputsRenderTheRunsResults seeds a runner's Figure 1 and Figure 5
// with values no computation produces, then writes the report and the
// figures JSON on a tiny config. Both must render the seeded figures as
// they are, while the tables and Figure 4 the run never printed are
// computed for them.
func TestOutputsRenderTheRunsResults(t *testing.T) {
	r := &runner{
		cfg: bench.Config{
			Scenarios: 3, Seed: 5, MaxEvals: 4,
			Datasets: []string{"COMPAS", "Brazil Tourism"},
		},
		grid: 2, figure1N: 1,
	}
	fig1 := []bench.Figure1Point{
		{Model: model.KindLR, NumFeatures: 1, F1: 0.625, EO: 0.75, SizeFrac: 0.25, Safety: 0.875},
		{Model: model.KindLR, NumFeatures: 2, F1: 0.75, EO: 0.5, SizeFrac: 0.5, Safety: 0.625},
	}
	fig5 := &bench.Figure5Result{Pairs: map[string][]bench.Figure5Cell{
		"EO": {{MinF1: 0.5, Threshold: 0.875, Winner: "seeded"}},
	}}
	r.res.Figure1, r.res.Figure5 = fig1, fig5

	dir := t.TempDir()
	reportPath, jsonPath := filepath.Join(dir, "r.md"), filepath.Join(dir, "f.json")
	if err := r.writeReport(reportPath); err != nil {
		t.Fatal(err)
	}
	fig4 := r.res.Figure4
	if err := r.writeFiguresJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	if r.res.Figure5 != fig5 || !reflect.DeepEqual(r.res.Figure1, fig1) {
		t.Fatal("writing the outputs replaced the seeded figures")
	}
	if fig4 == nil || r.res.Figure4 != fig4 {
		t.Fatal("the figures JSON recomputed the Figure 4 the report computed")
	}

	doc, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Table 3", "## Table 4", "## Table 5", "## Table 6", "## Table 7",
		"## Table 8", "## Table 9", "## Figure 1", "## Figure 4", "## Figure 5",
		"- LR: 2 subsets,", "0.500,0.875,seeded\n",
	} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if strings.Contains(string(doc), "- NB:") {
		t.Error("report renders a recomputed Figure 1 (an NB line), not the seeded one")
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var figs struct {
		Figure1 []struct {
			Model string  `json:"model"`
			F1    float64 `json:"f1"`
		} `json:"figure1"`
		Figure4 *struct {
			Rows []json.RawMessage `json:"rows"`
		} `json:"figure4"`
		Figure5 map[string][]struct {
			Threshold float64 `json:"threshold"`
			Winner    string  `json:"winner"`
		} `json:"figure5"`
	}
	if err := json.Unmarshal(raw, &figs); err != nil {
		t.Fatal(err)
	}
	if len(figs.Figure1) != 2 || figs.Figure1[0].Model != "LR" || figs.Figure1[1].F1 != 0.75 {
		t.Errorf("figures JSON Figure 1 = %+v, want the two seeded points", figs.Figure1)
	}
	if len(figs.Figure5) != 1 || len(figs.Figure5["EO"]) != 1 ||
		figs.Figure5["EO"][0].Winner != "seeded" || figs.Figure5["EO"][0].Threshold != 0.875 {
		t.Errorf("figures JSON Figure 5 = %+v, want the one seeded cell", figs.Figure5)
	}
	if figs.Figure4 == nil || len(figs.Figure4.Rows) == 0 {
		t.Error("figures JSON lacks the computed Figure 4")
	}
}

// TestExperimentNames: -exp NAME runs exactly that entry (its body
// printed and written under -out), -exp all runs all twelve in order, and
// an unknown name is an error. The entries' computations are stubbed; the
// table's names and order are the real ones.
func TestExperimentNames(t *testing.T) {
	want := []string{"table3", "table4", "table5", "table6", "table7", "table8",
		"table9", "figure1", "figure4", "figure5", "ablation", "extension"}
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("experiments %v, want %v", names, want)
	}

	var ran []string
	real := experiments
	t.Cleanup(func() { experiments = real })
	experiments = nil
	for _, e := range real {
		experiments = append(experiments, experiment{e.name, e.title, func(*runner) (string, error) {
			ran = append(ran, e.name)
			return e.name + " body\n", nil
		}})
	}
	r := &runner{outDir: t.TempDir()}
	for _, name := range want {
		ran = nil
		if err := r.run(name); err != nil {
			t.Fatalf("-exp %s: %v", name, err)
		}
		if !slices.Equal(ran, []string{name}) {
			t.Fatalf("-exp %s ran %v", name, ran)
		}
		body, err := os.ReadFile(filepath.Join(r.outDir, name+".txt"))
		if err != nil || string(body) != name+" body\n" {
			t.Fatalf("-exp %s wrote %q (%v) under -out", name, body, err)
		}
	}
	ran = nil
	if err := r.run("all"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ran, want) {
		t.Fatalf("-exp all ran %v, want %v", ran, want)
	}
	if err := r.run("table10"); err == nil || !strings.Contains(err.Error(), `unknown experiment "table10"`) {
		t.Fatalf("-exp table10 returned %v, want an unknown-experiment error", err)
	}
}

// TestProgressAlone: -progress without -trace or -debug-addr attaches a
// runtime without a tracer and prints the pools' progress line off its
// counters.
func TestProgressAlone(t *testing.T) {
	ctx, stopObs, err := obs.Setup(context.Background(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stopObs()
	pr, pw := io.Pipe()
	ctx, stop := startProgress(ctx, time.Millisecond, pw)
	defer stop()
	defer pr.Close() // before stop: a line in flight fails instead of blocking
	rt := obs.FromContext(ctx)
	if rt == nil || rt.Tracer() != nil {
		t.Fatalf("-progress alone runs on runtime %+v, want one without a tracer", rt)
	}
	rt.Metrics().Counter("pool.scenarios_planned").Add(2)
	lines := bufio.NewScanner(pr)
	for i := 0; i < 1000 && lines.Scan(); i++ {
		if strings.HasPrefix(lines.Text(), "# pools: 0/2 scenarios done") {
			return
		}
	}
	t.Fatalf("no progress line counts the 2 planned scenarios (last %q, err %v)", lines.Text(), lines.Err())
}
