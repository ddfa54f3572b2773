package constraint

// FeatureDependence describes how a constraint correlates with the number of
// selected features (Table 1's "#Feature Dependence" column).
type FeatureDependence string

// Feature-dependence classes from Table 1.
const (
	// DependenceNone means the constraint ignores the feature count.
	DependenceNone FeatureDependence = "none"
	// DependencePositive means more features tend to help (accuracy).
	DependencePositive FeatureDependence = "positive"
	// DependenceNegative means more features tend to hurt (EO, safety,
	// privacy, complexity).
	DependenceNegative FeatureDependence = "negative"
)

// TaxonomyEntry is one row of the paper's Table 1 constraint taxonomy.
type TaxonomyEntry struct {
	Name string
	// EvaluationDependent reports whether verifying the constraint requires
	// training and applying a model.
	EvaluationDependent bool
	// FeatureDependence is the correlation with the feature count.
	FeatureDependence FeatureDependence
	// Required inputs.
	NeedsFeatures, NeedsTarget, NeedsModel, NeedsPredictions bool
}

// Taxonomy returns the paper's Table 1, the semantics the checks in this
// package implement, which TestTaxonomyMatchesTable1 pins. The evaluator
// does not read it: its one check before any training, the feature-count
// cap, goes through Set.HasFeatureCap.
func Taxonomy() []TaxonomyEntry {
	return []TaxonomyEntry{
		{Name: "Max Search Time"},
		{Name: "Max Feature Set Size", FeatureDependence: DependenceNegative, NeedsFeatures: true},
		{Name: "Max Training Time", EvaluationDependent: true, FeatureDependence: DependenceNegative},
		{Name: "Max Inference Time", EvaluationDependent: true, FeatureDependence: DependenceNegative},
		{Name: "Min Accuracy", EvaluationDependent: true, FeatureDependence: DependencePositive,
			NeedsTarget: true, NeedsPredictions: true},
		{Name: "Min Equal Opportunity", EvaluationDependent: true, FeatureDependence: DependenceNegative,
			NeedsFeatures: true, NeedsTarget: true, NeedsPredictions: true},
		{Name: "Min Privacy", FeatureDependence: DependenceNegative},
		{Name: "Min Safety", EvaluationDependent: true, FeatureDependence: DependenceNegative,
			NeedsFeatures: true, NeedsTarget: true, NeedsModel: true, NeedsPredictions: true},
	}
}
