// Package core is the heart of the DFS system: it defines the ML scenario
// (§2.1), the wrapper evaluator that scores feature subsets against the
// declared constraints with the Eq. 1 distance / Eq. 2 utility objective
// (§4.3) under a search budget, and the 16 named feature-selection
// strategies of the study (§4.2).
package core

import (
	"fmt"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Mode selects the problem variant of §2.1.
type Mode int

const (
	// ModeSatisfy stops at the first feature subset satisfying all
	// constraints on validation and test data.
	ModeSatisfy Mode = iota
	// ModeMaximizeUtility keeps searching after satisfaction, maximizing F1
	// subject to the constraints (Eq. 2), until the budget is spent.
	ModeMaximizeUtility
)

// Scenario is the user-declared ML scenario Z = (φ, D, splits, C).
type Scenario struct {
	// Split holds the stratified 3:1:1 train/validation/test partitions.
	Split *dataset.Split
	// ModelKind is the classification model family φ.
	ModelKind model.Kind
	// HPO enables the grid search of §6.1; without it the default
	// hyperparameters are used.
	HPO bool
	// Constraints is the declared constraint set C.
	Constraints constraint.Set
	// Mode selects constraint satisfaction or utility maximization.
	Mode Mode
	// AttackInstances caps the instances attacked per safety evaluation;
	// 0 means 8.
	AttackInstances int
	// Custom holds user-defined minimum-threshold constraints evaluated
	// alongside the built-in ones (see CustomConstraint).
	Custom []CustomConstraint
}

// Validate checks the scenario invariants.
func (s *Scenario) Validate() error {
	if s.Split == nil || s.Split.Train == nil || s.Split.Val == nil || s.Split.Test == nil {
		return fmt.Errorf("core: scenario needs train/val/test splits")
	}
	if s.Split.Train.Features() == 0 {
		return fmt.Errorf("core: scenario has no features")
	}
	switch s.ModelKind {
	case model.KindLR, model.KindNB, model.KindDT, model.KindSVM:
	default:
		return fmt.Errorf("core: unknown model kind %q", s.ModelKind)
	}
	for _, c := range s.Custom {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return s.Constraints.Validate()
}

// NewScenario splits the dataset 3:1:1 (stratified, deterministic in seed)
// and assembles a scenario.
func NewScenario(d *dataset.Dataset, kind model.Kind, cs constraint.Set, hpo bool, mode Mode, seed uint64) (*Scenario, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	split, err := dataset.StratifiedSplit(d, xrand.NewStream(seed, 0x5eed))
	if err != nil {
		return nil, err
	}
	scn := &Scenario{Split: split, ModelKind: kind, HPO: hpo, Constraints: cs, Mode: mode}
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	return scn, nil
}

// specs returns the hyperparameter specs evaluated per subset.
func (s *Scenario) specs() []model.Spec {
	if s.HPO {
		return model.DefaultGrid(s.ModelKind)
	}
	return []model.Spec{{Kind: s.ModelKind}}
}

// kindFactor returns the training cost factor for the scenario's model.
func (s *Scenario) kindFactor() float64 {
	switch s.ModelKind {
	case model.KindNB:
		return budget.KindFactorNB
	case model.KindDT:
		return budget.KindFactorDT
	case model.KindSVM:
		return budget.KindFactorSVM
	default:
		return budget.KindFactorLR
	}
}
