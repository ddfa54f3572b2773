package synth

import "testing"

// poolColdSlots are the profiles of dfsperf's pool_cold slots, whose set-up
// is GenerateDataset for each of them.
var poolColdSlots = []string{
	"COMPAS", "German Credit", "Titanic",
	"Indian Liver Patient", "Social Mobility", "Telco Customer Churn",
}

var benchDataset any

// BenchmarkGenerateDataset times materializing one profile, table and
// preprocessing, at a constant seed.
func BenchmarkGenerateDataset(b *testing.B) {
	for _, name := range poolColdSlots {
		p, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := GenerateDataset(&p, 1)
				if err != nil {
					b.Fatal(err)
				}
				benchDataset = d
			}
		})
	}
}
