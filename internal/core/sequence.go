package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// RunSequence implements the dynamic strategy-switching extension sketched
// in the paper's future work (§7): strategies run one after another against
// a *shared* evaluator and budget. Each stage receives half of the remaining
// budget (the final stage gets everything left); a stage that burns its
// allowance without satisfying the scenario hands over to the next strategy,
// which is warm-started through the shared evaluation cache — subsets the
// previous strategy already trained are free for the successor.
//
// Each stage runs panic-isolated: a panicking stage ends the sequence, as a
// failing one does, with a "core: sequence stage …" error — wrapping its
// panicked *StrategyError — instead of crashing the process.
//
// The returned result's Strategy field names the stage that found the
// solution, or "Sequence(a → b → …)" when none did.
func RunSequence(strategies []Strategy, scn *Scenario, seed uint64, maxEvals int) (RunResult, error) {
	if len(strategies) == 0 {
		return RunResult{}, fmt.Errorf("core: empty strategy sequence")
	}
	parent := budget.NewSim(scn.Constraints.MaxSearchCost)
	ev, err := NewEvaluator(scn, parent, seed, maxEvals)
	if err != nil {
		return RunResult{}, err
	}

	var names []string
	winner := ""
	for i, s := range strategies {
		names = append(names, s.Name())
		remaining := parent.Limit() - parent.Spent()
		if remaining <= 0 {
			break
		}
		allowance := remaining / 2
		if i == len(strategies)-1 {
			allowance = remaining
		}
		stage := budget.NewStaged(parent, allowance)
		ev.SetMeter(stage)
		hadSolution := ev.Solution() != nil
		if err := runProtected(s, ev, xrand.NewStream(seed, uint64(i)*2+0x5e9)); err != nil &&
			!errors.Is(err, budget.ErrExhausted) {
			return RunResult{}, fmt.Errorf("core: sequence stage %s: %w", s.Name(), err)
		}
		if sol := ev.Solution(); sol != nil {
			if !hadSolution || winner == "" {
				winner = s.Name()
			}
			if scn.Mode == ModeSatisfy {
				break
			}
		}
	}
	// Every stage meter reads the parent's spend, so the result's TotalCost
	// is the whole sequence's.
	if ev.Solution() != nil {
		return resultOf(ev, winner), nil
	}
	return resultOf(ev, "Sequence("+strings.Join(names, " → ")+")"), nil
}
