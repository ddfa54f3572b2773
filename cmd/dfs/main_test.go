package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dfs "github.com/declarative-fs/dfs"
)

func TestParseModel(t *testing.T) {
	cases := map[string]dfs.ModelKind{
		"":    dfs.LR,
		"LR":  dfs.LR,
		"lr":  dfs.LR,
		" nb": dfs.NB,
		"DT":  dfs.DT,
		"svm": dfs.SVM,
	}
	for in, want := range cases {
		got, err := parseModel(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Fatalf("%q parsed to %q, want %q", in, got, want)
		}
	}
	if _, err := parseModel("xgboost"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestLoadDatasetBuiltin(t *testing.T) {
	d, err := loadDataset(spec{Dataset: "COMPAS", DataSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := loadDataset(spec{}); err == nil {
		t.Fatal("missing dataset accepted")
	}
	if _, err := loadDataset(spec{Dataset: "missing.csv"}); err == nil {
		t.Fatal("missing CSV accepted")
	}
}

func TestLoadDatasetCSV(t *testing.T) {
	tab, err := dfs.GenerateBuiltinTable("Brazil Tourism", 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteCSV(f, tab); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := loadDataset(spec{Dataset: path})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != tab.Rows() {
		t.Fatalf("rows %d != %d", d.Rows(), tab.Rows())
	}
}

func TestRunEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	specJSON := `{
		"dataset": "COMPAS",
		"model": "LR",
		"strategy": "SFS(NR)",
		"min_f1": 0.5,
		"max_search_cost": 500,
		"seed": 3,
		"max_evaluations": 30
	}`
	if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(t.TempDir(), "missing.json"), "", ""); err == nil {
		t.Fatal("missing spec accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, "", ""); err == nil {
		t.Fatal("malformed spec accepted")
	}
}

// runOutput runs the spec at path and returns what run prints.
func runOutput(t *testing.T, path string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(path, "", "")
	os.Stdout = stdout
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunIgnoresRetiredSpecKey: testdata/spec-retired-key.json is
// testdata/spec.json plus a key older builds read. json.Unmarshal ignores it
// like any unknown key, so both specs print the same selection.
func TestRunIgnoresRetiredSpecKey(t *testing.T) {
	want := runOutput(t, filepath.Join("testdata", "spec.json"))
	got := runOutput(t, filepath.Join("testdata", "spec-retired-key.json"))
	if !bytes.Equal(got, want) {
		t.Fatalf("spec with a retired key printed\n%s\nwant\n%s", got, want)
	}
}

// TestRunFailsOnUnwritableTrace: a trace that cannot be flushed (here a
// full device) fails the run instead of exiting 0 with the trace lost.
func TestRunFailsOnUnwritableTrace(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	err := run(filepath.Join("testdata", "spec.json"), "", "/dev/full")
	if err == nil || !strings.Contains(err.Error(), "trace /dev/full") {
		t.Fatalf("run with an unwritable trace returned %v, want a trace error", err)
	}
}
