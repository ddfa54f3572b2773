package dataset_test

import (
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/synth"
)

var benchDataset *dataset.Dataset

// BenchmarkPreprocess times the model-ready conversion of German Credit,
// the widest pool_cold profile (59 features, 44 of them one-hot).
func BenchmarkPreprocess(b *testing.B) {
	p, err := synth.ByName("German Credit")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := synth.Generate(&p, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dataset.Preprocess(tab)
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = d
	}
}
