package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/model"
)

// FuzzParseCheckpoint fuzzes the checkpoint decoder, which reads back every
// resume, shard merge and finished dfsd result. On any input it must not
// panic. When it accepts one, the records are ID-sorted and unique, the
// intact prefix it reports re-parses to the same records, and a torn last
// line after that prefix never changes them.
func FuzzParseCheckpoint(f *testing.F) {
	// The seed checkpoint is written the way a 2-scenario pool writes it,
	// with small records that still set every kind of field, so mutations
	// stay cheap enough to explore.
	cfg := Config{Scenarios: 2, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}}
	records := []Record{
		{ID: 0, Dataset: "COMPAS", Model: model.KindLR,
			Constraints: constraint.Set{MinF1: 0.6, MaxFeatureFrac: 0.5, MaxSearchCost: 900},
			Results: map[string]core.RunResult{"SFS(NR)": {Strategy: "SFS(NR)", Satisfied: true, Features: []int{0, 3},
				ValScores: constraint.Scores{F1: 0.71, FeatureFrac: 0.25}, TestScores: constraint.Scores{F1: 0.69},
				CostAtSolution: 120.5, TotalCost: 310, Evaluations: 12}},
			MetaX: []float64{0.25, 7, 1e-3}},
		{ID: 1, Dataset: "COMPAS", Model: model.KindDT,
			Constraints: constraint.Set{MinF1: 0.8, MinEO: 0.9, MaxSearchCost: 400},
			Results: map[string]core.RunResult{"SFS(NR)": {Strategy: "SFS(NR)", TotalCost: 400, Evaluations: 30,
				BestValDistance: 0.04, BestTestDistance: 0.05}},
			Failures:     map[string]string{"TPE(MCFS)": "panic: injected"},
			FailureKinds: map[string]core.FailureCategory{"TPE(MCFS)": core.FailurePanic}},
	}
	path := filepath.Join(f.TempDir(), "pool.ckpt")
	w, err := CreateCheckpoint(path, cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := range records {
		if err := w.Append(&records[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	hdr, body, _ := bytes.Cut(data, []byte("\n"))
	f.Add(data)
	f.Add(data[:len(data)-1])                   // the last record's newline torn off
	f.Add(data[:len(data)-40])                  // the last record torn mid-line
	f.Add(data[:len(hdr)+1])                    // header only
	f.Add(append(bytes.Clone(data), body...))   // every record appended twice
	f.Add(append(bytes.Clone(data), '{', '\n')) // a final line that does not parse
	fields, err := os.ReadFile(filepath.Join("testdata", "retired-header-fields"))
	if err != nil {
		f.Fatal(err)
	}
	for _, field := range strings.Split(strings.TrimSpace(string(fields)), "\n") {
		old := bytes.TrimSuffix(hdr, []byte("}}"))
		f.Add([]byte(string(old) + "," + field + "}}\n" + string(body)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, n, err := parseCheckpoint("fuzz.ckpt", data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) || data[n-1] != '\n' {
			t.Fatalf("intact prefix of %d bytes does not end a line of the %d-byte input", n, len(data))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].ID <= recs[i-1].ID {
				t.Fatalf("record %d has ID %d after ID %d: not sorted and unique", i, recs[i].ID, recs[i-1].ID)
			}
		}
		prefix := data[:n:n]
		if _, again, n2, err := parseCheckpoint("fuzz.ckpt", prefix); err != nil || n2 != n || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-parsing the %d-byte intact prefix: %d bytes, %d records, err %v; want %d bytes, %d records",
				n, n2, len(again), err, n, len(recs))
		}
		// The prefix's own last line cut short, as a crash in the middle of
		// appending it again would leave it.
		last := prefix[bytes.LastIndexByte(prefix[:n-1], '\n')+1 : n-1]
		torn := append(prefix, last[:len(last)/2]...)
		if _, after, n3, err := parseCheckpoint("fuzz.ckpt", torn); err != nil || n3 != n || !reflect.DeepEqual(after, recs) {
			t.Fatalf("a torn last line changed the parse: %d bytes, %d records, err %v; want %d bytes, %d records",
				n3, len(after), err, n, len(recs))
		}
	})
}
