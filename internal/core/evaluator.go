package core

import (
	"fmt"
	"math"
	"time"

	"github.com/declarative-fs/dfs/internal/attack"
	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/metrics"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/privacy"
	"github.com/declarative-fs/dfs/internal/ranking"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// pruneBase is the objective value of subsets pruned without evaluation
// (evaluation-independent constraint violations, Table 1); large enough that
// any trained subset scores better, with the cap distance added so searches
// still feel a gradient toward smaller sets.
const pruneBase = 1e6

// visitCap bounds the total number of Evaluate calls (including free prunes
// and cache hits) per evaluator. Pruned subsets cost no budget — exactly as
// the paper's evaluation-independent optimization intends — so without this
// guard an exhaustive enumeration under a tight feature cap could spin
// through 2^N free subsets.
const visitCap = 500000

// evalStream is the stream selector of the per-subset RNG; see evalRNG.
const evalStream = 0x5e1ec7

// Candidate is one evaluated feature subset.
type Candidate struct {
	// Mask is the feature selection.
	Mask []bool
	// Val holds the validation scores.
	Val constraint.Scores
	// Test holds the test scores; valid only when TestEvaluated.
	Test          constraint.Scores
	TestEvaluated bool
	// Distance is the Eq. 1 distance on validation.
	Distance float64
	// Objective is the Eq. 2 objective on validation.
	Objective float64
	// SpentAt is the budget spent when this candidate was evaluated.
	SpentAt float64
}

// Features lists the selected feature indices.
func (c *Candidate) Features() []int { return selected(c.Mask) }

type cacheEntry struct {
	value float64
	multi []float64
	stop  bool
}

// Evaluator is the wrapper-approach evaluation engine (§4.1): every subset
// is scored by training the scenario's model (its DP variant when privacy is
// declared), measuring the constrained metrics on validation data, and
// confirming satisfying subsets on test data. It implements both
// search.Objective and search.MultiObjective.
//
// Every random draw of an evaluation (DP training noise, attack sampling)
// comes from a stream derived from (seed, mask), not from a sequential
// generator, so the physical result of a subset is independent of the order
// in which subsets are visited. That independence is what lets a SharedMemo
// serve one strategy's training to another without changing any number.
type Evaluator struct {
	scn   *Scenario
	meter budget.Meter
	seed  uint64

	cache    map[string]cacheEntry
	shared   *SharedMemo
	evals    int
	maxEvals int
	visits   int

	// noPruning disables the evaluation-independent feature-cap pruning;
	// only the backward strategies and the ablation benchmark set it.
	noPruning bool

	// Reusable hot-path buffers: the bit-packed mask key scratch and the
	// two prediction buffers trainAndScore ping-pongs between. They make
	// cache probes and batch predictions allocation-free; the evaluator is
	// consequently not safe for concurrent use (each strategy owns one).
	keyBuf []byte
	predA  []int
	predB  []int

	// trainViews / valViews / testViews cache the most recent
	// feature-selected copies of the three splits: RFE re-selects the subset
	// it just evaluated to rank features, and EvaluateOnTest re-selects the
	// best candidate's subset. A miss rewrites an older view in place, so a
	// view is used before the next selection from its cache and never kept.
	trainViews *dataset.SelectionCache
	valViews   *dataset.SelectionCache
	testViews  *dataset.SelectionCache

	best     *Candidate // lowest validation distance (then objective)
	solution *Candidate // best test-confirmed satisfying subset

	// obsv is the attached observability handle (see Observe); nil — the
	// default — keeps every instrumentation point a single pointer check.
	obsv *evalObs
}

// NewEvaluator builds an evaluator for the scenario. maxEvals, when
// positive, bounds the number of distinct trained subsets (a real-compute
// guard for the benchmark harness); the simulated budget in
// scn.Constraints.MaxSearchCost is always enforced through meter.
func NewEvaluator(scn *Scenario, meter budget.Meter, seed uint64, maxEvals int) (*Evaluator, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{
		scn:        scn,
		meter:      meter,
		seed:       seed,
		cache:      make(map[string]cacheEntry),
		maxEvals:   maxEvals,
		trainViews: dataset.NewSelectionCache(scn.Split.Train),
		valViews:   dataset.NewSelectionCache(scn.Split.Val),
		testViews:  dataset.NewSelectionCache(scn.Split.Test),
	}, nil
}

// Scenario returns the evaluated scenario.
func (ev *Evaluator) Scenario() *Scenario { return ev.scn }

// Meter returns the budget meter.
func (ev *Evaluator) Meter() budget.Meter { return ev.meter }

// SetMeter swaps the budget meter; RunSequence installs a fresh stage
// allowance per strategy while the evaluation cache (the warm start) and
// best/solution records persist.
func (ev *Evaluator) SetMeter(m budget.Meter) { ev.meter = m }

// UseShared attaches a cross-strategy memoization layer. The memo must be
// shared only between evaluators of the same scenario and seed; see
// SharedMemo.
func (ev *Evaluator) UseShared(m *SharedMemo) { ev.shared = m }

// sharedRanking consults the durable tier (when attached) for the ranking of
// the given subset and family under this evaluator's seed. A nil mask means
// the full-split ranking of the topK strategies.
func (ev *Evaluator) sharedRanking(mask []bool, family string) ([]float64, bool, bool) {
	if ev.shared == nil {
		return nil, false, false
	}
	var key string
	if mask != nil {
		key = string(ev.maskKeyBytes(mask))
	}
	return ev.shared.LookupRanking(key, family, ev.seed)
}

// storeRanking publishes a freshly computed ranking to the durable tier so
// later runs, shards, and restarts skip the computation.
func (ev *Evaluator) storeRanking(mask []bool, family string, scores []float64, usedPermutation bool) {
	if ev.shared == nil {
		return
	}
	var key string
	if mask != nil {
		key = string(ev.maskKeyBytes(mask))
	}
	ev.shared.PutRanking(key, family, ev.seed, scores, usedPermutation)
}

// computeRanking runs r on train once neither the shared memo nor the
// durable tier could serve the ranking. An observed evaluator times it into
// rank.seconds.<family>, beside train.seconds.<kind>; a served ranking
// records nothing.
func (ev *Evaluator) computeRanking(r ranking.Ranker, train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	if ev.obsv == nil {
		return r.Rank(train, rng)
	}
	start := time.Now()
	scores, err := r.Rank(train, rng)
	ev.obsv.metrics.Histogram("rank.seconds." + string(r.Family())).Observe(time.Since(start).Seconds())
	return scores, err
}

// SetPruning toggles the evaluation-independent feature-cap pruning
// (enabled by default); the pruning ablation disables it so cap-violating
// subsets are trained and charged like any other.
func (ev *Evaluator) SetPruning(enabled bool) { ev.noPruning = !enabled }

// Evaluations returns the number of distinct evaluated subsets. Subsets
// served by a SharedMemo count like privately trained ones: the figure
// tracks the paper's simulated compute, not the physical trainings.
func (ev *Evaluator) Evaluations() int { return ev.evals }

// Best returns the candidate with the lowest validation distance seen so
// far (nil before the first evaluation).
func (ev *Evaluator) Best() *Candidate { return ev.best }

// Solution returns the confirmed satisfying subset (nil if none).
func (ev *Evaluator) Solution() *Candidate { return ev.solution }

// NumFeatures implements search.Objective.
func (ev *Evaluator) NumFeatures() int { return ev.scn.Split.Train.Features() }

// NumObjectives implements search.MultiObjective: one objective per active
// distance-contributing constraint (privacy and search time never
// contribute), plus one per custom constraint.
func (ev *Evaluator) NumObjectives() int {
	n := 1 // Min F1 is mandatory
	c := ev.scn.Constraints
	if c.HasFeatureCap() {
		n++
	}
	if c.HasEO() {
		n++
	}
	if c.HasSafety() {
		n++
	}
	return n + len(ev.scn.Custom)
}

// maskKeyBytes packs the mask into the evaluator's key scratch buffer, one
// bit per feature. Cache probes convert it with string(b) at the call site,
// which the compiler compiles to an allocation-free map lookup; only
// storing a new entry materializes the key.
func (ev *Evaluator) maskKeyBytes(mask []bool) []byte {
	n := (len(mask) + 7) / 8
	if cap(ev.keyBuf) < n {
		ev.keyBuf = make([]byte, n)
	}
	b := ev.keyBuf[:n]
	for i := range b {
		b[i] = 0
	}
	for i, v := range mask {
		if v {
			b[i>>3] |= 1 << uint(i&7)
		}
	}
	return b
}

// maskHash is FNV-1a over the packed mask bytes.
func maskHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// evalRNG derives the random stream of one subset evaluation from the
// evaluator seed and the mask alone. Two strategies of the same scenario
// (same seed) therefore draw identical DP noise and attack samples for the
// same subset no matter when they reach it — the property that makes
// memoized physical results indistinguishable from private retraining.
func (ev *Evaluator) evalRNG(key []byte) *xrand.RNG {
	return xrand.NewStream(ev.seed^maskHash(key), evalStream)
}

func (ev *Evaluator) memoKeyFor(key []byte) memoKey {
	return memoKey{
		mask: string(key),
		kind: ev.scn.ModelKind,
		hpo:  ev.scn.HPO,
		eps:  ev.scn.Constraints.PrivacyEps,
		seed: ev.seed,
	}
}

// Evaluate implements search.Objective.
func (ev *Evaluator) Evaluate(mask []bool) (float64, bool, error) {
	v, _, stop, err := ev.evaluate(mask)
	return v, stop, err
}

// EvaluateMulti implements search.MultiObjective.
func (ev *Evaluator) EvaluateMulti(mask []bool) ([]float64, bool, error) {
	_, multi, stop, err := ev.evaluate(mask)
	return multi, stop, err
}

func (ev *Evaluator) evaluate(mask []bool) (float64, []float64, bool, error) {
	if len(mask) != ev.NumFeatures() {
		return 0, nil, false, fmt.Errorf("core: mask width %d != features %d", len(mask), ev.NumFeatures())
	}
	if ev.meter.Exhausted() {
		return 0, nil, false, budget.ErrExhausted
	}
	ev.visits++
	if ev.visits > visitCap {
		return 0, nil, false, budget.ErrExhausted
	}

	// Evaluation-independent pruning (Table 1): an empty subset or a
	// feature-cap violation is rejected without any training, any budget
	// charge, or any cache entry (the check is cheaper than the lookup).
	count := 0
	for _, b := range mask {
		if b {
			count++
		}
	}
	cs := ev.scn.Constraints
	p := ev.NumFeatures()
	frac := float64(count) / float64(p)
	if count == 0 {
		if ev.obsv != nil {
			ev.obsv.pruned.Inc()
		}
		v := pruneBase * 2
		return v, ev.pruneMulti(v), false, nil
	}
	if !ev.noPruning && cs.HasFeatureCap() && frac > cs.MaxFeatureFrac {
		if ev.obsv != nil {
			// Counted but not traced: an exhaustive search under a tight cap
			// prunes hundreds of thousands of subsets for free, which would
			// dominate the trace without adding information.
			ev.obsv.pruned.Inc()
		}
		capDist := (frac - cs.MaxFeatureFrac) * (frac - cs.MaxFeatureFrac)
		v := pruneBase + capDist
		return v, ev.pruneMulti(v), false, nil
	}

	key := ev.maskKeyBytes(mask)
	if e, ok := ev.cache[string(key)]; ok {
		// Intra-strategy revisits stay free, with or without sharing.
		if ev.obsv != nil {
			ev.obsv.cached.Inc()
		}
		return e.value, e.multi, e.stop, nil
	}

	if ev.maxEvals > 0 && ev.evals >= ev.maxEvals {
		return 0, nil, false, budget.ErrExhausted
	}
	ev.evals++

	if ev.shared == nil {
		return ev.computeEvaluate(mask, key, nil, nil)
	}

	mk := ev.memoKeyFor(key)
	durable := ev.shared.durable()
	for {
		if ev.obsv != nil {
			// Every acquire is one lookup, so after a wake-up the re-acquire
			// counts again — the invariant lookups == hits + misses + waits
			// holds exactly, and hits + misses == decided lookups.
			ev.obsv.memoLookups.Inc()
		}
		phys, src, owned, ready := ev.shared.acquire(mk)
		switch src {
		case acqMem, acqDisk:
			if o := ev.obsv; o != nil {
				// A durable hit counts as a memo hit too, so the PR 3
				// invariants (lookups == hits+misses+waits, replayed == hits)
				// keep holding; the evalstore.* family splits by tier and is
				// counted only on decided acquires, so
				// evalstore.lookups == hits_mem + hits_disk + misses exactly.
				o.memoHits.Inc()
				if durable {
					o.esLookups.Inc()
					if src == acqDisk {
						o.esHitsDisk.Inc()
					} else {
						o.esHitsMem.Inc()
					}
				}
			}
			return ev.replayEvaluate(mask, key, count, phys)
		case acqOwner:
			if o := ev.obsv; o != nil {
				o.memoMisses.Inc()
				if durable {
					o.esLookups.Inc()
					o.esMisses.Inc()
				}
			}
			return ev.computeEvaluate(mask, key, &mk, owned)
		default:
			// Another strategy is training this subset right now; wait for
			// its commit (or abandonment) instead of duplicating the work.
			if ev.obsv != nil {
				ev.obsv.memoWaits.Inc()
			}
			<-ready
		}
	}
}

// computeEvaluate trains the subset for real and finishes the evaluation.
// When the caller owns a shared-memo slot (owned != nil), the physical
// result is committed at exactly the point the local cache entry is stored,
// and the slot is abandoned on any failure — including a panic unwinding
// through this frame.
func (ev *Evaluator) computeEvaluate(mask []bool, key []byte, mk *memoKey, owned *memoEntry) (v float64, multi []float64, stop bool, err error) {
	committed := false
	if owned != nil {
		defer func() {
			if !committed {
				ev.shared.abandon(*mk, owned)
			}
		}()
	}
	sel := selected(mask)
	if o := ev.obsv; o != nil {
		// trained is 1:1 with owner acquires (and with every physical
		// training when sharing is off): incremented here, before anything
		// can fail, and the event is emitted by defer so exhausted or
		// errored trainings still appear in the trace.
		o.trained.Inc()
		memoState := "off"
		if owned != nil {
			memoState = "miss"
		}
		spent0 := ev.meter.Spent()
		start := time.Now()
		defer func() {
			o.evalEvent(memoState, len(sel), ev.meter.Spent()-spent0, time.Since(start), err)
		}()
	}
	rng := ev.evalRNG(key)
	var t0 time.Time
	if ev.obsv != nil {
		t0 = time.Now()
	}
	clf, valScores, valCustom, err := ev.trainAndScore(sel, key, rng)
	if ev.obsv != nil {
		ev.obsv.trainTime.Observe(time.Since(t0).Seconds())
	}
	if err != nil {
		return 0, nil, false, err
	}
	phys := physical{val: valScores, valCustom: valCustom}
	confirm := func() (constraint.Scores, []float64, error) {
		testScores, testCustom, err := ev.scoreOn(clf, key, sel, true, rng)
		if err == nil {
			phys.test, phys.testCustom, phys.hasTest = testScores, testCustom, true
		}
		return testScores, testCustom, err
	}
	return ev.finish(mask, key, valScores, valCustom, confirm, func() {
		if owned != nil {
			committed = true
			ev.shared.commit(*mk, owned, phys)
		}
	})
}

// replayEvaluate serves a subset another strategy already trained. The
// simulated meter is charged the complete training sequence of the subset —
// the full Eq. 1 cost, aborting at the same charge that would have aborted a
// real training — so the strategy's budget trajectory, SpentAt stamps, and
// stop points are bit-identical to a private evaluation; only the physical
// model fitting is skipped.
func (ev *Evaluator) replayEvaluate(mask []bool, key []byte, selCount int, phys physical) (v float64, multi []float64, stop bool, err error) {
	if o := ev.obsv; o != nil {
		o.replayed.Inc()
		spent0 := ev.meter.Spent()
		defer func() {
			o.evalEvent("hit", selCount, ev.meter.Spent()-spent0, 0, err)
		}()
	}
	if err := ev.chargeTrainSequence(selCount); err != nil {
		return 0, nil, false, err
	}
	confirm := func() (constraint.Scores, []float64, error) {
		if !phys.hasTest {
			// Unreachable by construction: a committed entry whose distance
			// is zero was test-confirmed before commit. Fail loudly rather
			// than diverge silently.
			return constraint.Scores{}, nil, fmt.Errorf("core: shared memo entry lacks test confirmation")
		}
		if err := ev.chargeTestConfirmation(selCount); err != nil {
			return constraint.Scores{}, nil, err
		}
		return phys.test, phys.testCustom, nil
	}
	return ev.finish(mask, key, phys.val, phys.valCustom, confirm, nil)
}

// finish is the evaluation tail shared by real and memo-served paths:
// distance/objective, best tracking, validation-then-test confirmation via
// confirm, solution bookkeeping, and the local cache store. committed, when
// non-nil, runs exactly when the evaluation fully succeeds (the local cache
// entry is stored) — the owner of a shared-memo slot publishes there.
func (ev *Evaluator) finish(mask []bool, key []byte, valScores constraint.Scores, valCustom []float64,
	confirm func() (constraint.Scores, []float64, error), committed func()) (float64, []float64, bool, error) {

	cs := ev.scn.Constraints
	dist := cs.Distance(valScores) + customDistance(ev.scn.Custom, valCustom)
	utility := 0.0
	if ev.scn.Mode == ModeMaximizeUtility {
		utility = valScores.F1
	}
	obj := dist
	if dist == 0 {
		obj = -utility
	}

	cand := &Candidate{
		Mask:      append([]bool(nil), mask...),
		Val:       valScores,
		Distance:  dist,
		Objective: obj,
		SpentAt:   ev.meter.Spent(),
	}
	if ev.best == nil || cand.Distance < ev.best.Distance ||
		(cand.Distance == ev.best.Distance && cand.Objective < ev.best.Objective) {
		ev.best = cand
	}

	stop := false
	if dist == 0 {
		// Constraints hold on validation: confirm on test (§2.2).
		testScores, testCustom, err := confirm()
		if err != nil {
			return 0, nil, false, err
		}
		cand.Test = testScores
		cand.TestEvaluated = true
		if cs.Satisfied(testScores) && customDistance(ev.scn.Custom, testCustom) == 0 {
			// The solution timestamp includes the test confirmation.
			cand.SpentAt = ev.meter.Spent()
			switch ev.scn.Mode {
			case ModeSatisfy:
				ev.solution = cand
				stop = true
			case ModeMaximizeUtility:
				if ev.solution == nil || testScores.F1 > ev.solution.Test.F1 {
					ev.solution = cand
				}
			}
		}
	}

	multi := ev.multiComponents(valScores, valCustom)
	ev.cache[string(key)] = cacheEntry{value: obj, multi: multi, stop: stop}
	if committed != nil {
		committed()
	}
	var budgetErr error
	if ev.meter.Exhausted() {
		budgetErr = budget.ErrExhausted
	}
	return obj, multi, stop, budgetErr
}

// trainEff returns the effective (nominal-scale) feature count of a subset
// against the training split.
func (ev *Evaluator) trainEff(selCount int) float64 {
	return float64(selCount) / float64(ev.NumFeatures()) * float64(ev.scn.Split.Train.NominalFeatures())
}

// chargeTrainSequence replays the exact charge schedule of trainAndScore for
// a memo-served subset: per grid member one training and one validation
// inference, plus the safety attack when declared. Amounts and order match
// trainAndScore charge for charge, so exhaustion aborts a replay at the same
// cumulative spend as a real training.
func (ev *Evaluator) chargeTrainSequence(selCount int) error {
	scn := ev.scn
	nomRows := scn.Split.Train.NominalRows() * 3 / 5
	effFeatures := ev.trainEff(selCount)
	kindFactor := scn.kindFactor()
	for range scn.specs() {
		if err := ev.charge(budget.TrainCost(nomRows, effFeatures, kindFactor)); err != nil {
			return err
		}
		if err := ev.charge(budget.EvalCost(nomRows/3, effFeatures)); err != nil {
			return err
		}
	}
	if scn.Constraints.HasSafety() {
		return ev.chargeAttack(effFeatures)
	}
	return nil
}

// chargeTestConfirmation replays the charge schedule of the test-split
// scoreOn: one inference pass plus the safety attack when declared.
func (ev *Evaluator) chargeTestConfirmation(selCount int) error {
	part := ev.scn.Split.Test
	effFeatures := float64(selCount) / float64(ev.NumFeatures()) * float64(part.NominalFeatures())
	if err := ev.charge(budget.EvalCost(part.NominalRows()/5, effFeatures)); err != nil {
		return err
	}
	if ev.scn.Constraints.HasSafety() {
		return ev.chargeAttack(effFeatures)
	}
	return nil
}

// trainAndScore trains the scenario's model (grid) on the selected features
// and returns the best-validation-F1 classifier with its validation scores
// and the custom-constraint scores. All randomness comes from rng, the
// per-subset stream.
func (ev *Evaluator) trainAndScore(sel []int, key []byte, rng *xrand.RNG) (model.Classifier, constraint.Scores, []float64, error) {
	scn := ev.scn
	train := ev.trainViews.Select(key, sel)
	val := ev.valViews.Select(key, sel)

	nomRows := scn.Split.Train.NominalRows() * 3 / 5
	effFeatures := ev.trainEff(len(sel))
	kindFactor := scn.kindFactor()

	var bestClf model.Classifier
	bestF1 := -1.0
	var bestPred []int
	scratch, keep := ev.predA, ev.predB
	for _, spec := range scn.specs() {
		if err := ev.charge(budget.TrainCost(nomRows, effFeatures, kindFactor)); err != nil {
			return nil, constraint.Scores{}, nil, err
		}
		clf, err := ev.newClassifier(spec, rng)
		if err != nil {
			return nil, constraint.Scores{}, nil, err
		}
		if err := clf.Fit(train); err != nil {
			return nil, constraint.Scores{}, nil, err
		}
		if err := ev.charge(budget.EvalCost(nomRows/3, effFeatures)); err != nil {
			return nil, constraint.Scores{}, nil, err
		}
		scratch = model.PredictBatchInto(clf, val.X, scratch)
		f1 := metrics.F1Score(val.Y, scratch)
		if f1 > bestF1 {
			bestClf, bestF1 = clf, f1
			scratch, keep = keep, scratch
			bestPred = keep
		}
	}
	ev.predA, ev.predB = scratch, keep

	scores := constraint.Scores{
		F1:          bestF1,
		EO:          metrics.EqualOpportunity(val.Y, bestPred, val.Sensitive),
		FeatureFrac: float64(len(sel)) / float64(ev.NumFeatures()),
		Safety:      1,
	}
	if scn.Constraints.HasSafety() {
		s, err := ev.measureSafety(bestClf, val, effFeatures, rng)
		if err != nil {
			return nil, constraint.Scores{}, nil, err
		}
		scores.Safety = s
	}
	custom := ev.customScores(bestClf, val, bestPred, scores.FeatureFrac)
	return bestClf, scores, custom, nil
}

// customScores evaluates every custom constraint metric.
func (ev *Evaluator) customScores(clf model.Classifier, part *dataset.Dataset, pred []int, frac float64) []float64 {
	if len(ev.scn.Custom) == 0 {
		return nil
	}
	in := MetricInput{
		YTrue:       part.Y,
		YPred:       pred,
		Sensitive:   part.Sensitive,
		Model:       clf,
		FeatureFrac: frac,
	}
	out := make([]float64, len(ev.scn.Custom))
	for i, c := range ev.scn.Custom {
		out[i] = c.Metric(in)
	}
	return out
}

// scoreOn measures the constrained metrics of a fitted classifier on the
// test split restricted to sel, whose mask key is key (the test
// confirmation), including custom constraints.
func (ev *Evaluator) scoreOn(clf model.Classifier, key []byte, sel []int, charge bool, rng *xrand.RNG) (constraint.Scores, []float64, error) {
	part := ev.scn.Split.Test
	sub := ev.testViews.Select(key, sel)
	effFeatures := float64(len(sel)) / float64(ev.NumFeatures()) * float64(part.NominalFeatures())
	if charge {
		if err := ev.charge(budget.EvalCost(part.NominalRows()/5, effFeatures)); err != nil {
			return constraint.Scores{}, nil, err
		}
	}
	pred := model.PredictBatchInto(clf, sub.X, ev.predA)
	ev.predA = pred
	scores := constraint.Scores{
		F1:          metrics.F1Score(sub.Y, pred),
		EO:          metrics.EqualOpportunity(sub.Y, pred, sub.Sensitive),
		FeatureFrac: float64(len(sel)) / float64(ev.NumFeatures()),
		Safety:      1,
	}
	if ev.scn.Constraints.HasSafety() {
		s, err := ev.measureSafety(clf, sub, effFeatures, rng)
		if err != nil {
			return constraint.Scores{}, nil, err
		}
		scores.Safety = s
	}
	return scores, ev.customScores(clf, sub, pred, scores.FeatureFrac), nil
}

// chargeAttack charges the cost of one empirical-robustness measurement.
func (ev *Evaluator) chargeAttack(effFeatures float64) error {
	instances := ev.scn.AttackInstances
	if instances <= 0 {
		instances = 8
	}
	// A HopSkipJump run spends on the order of 100 queries per instance with
	// the default config (init scan + bisections + gradient samples).
	const queriesPerInstance = 100
	return ev.charge(budget.AttackCost(instances, queriesPerInstance,
		ev.scn.Split.Train.NominalRows()/5, effFeatures))
}

// measureSafety runs the evasion attack on (a sample of) part and charges
// its cost against the meter.
func (ev *Evaluator) measureSafety(clf model.Classifier, part *dataset.Dataset, effFeatures float64, rng *xrand.RNG) (float64, error) {
	if err := ev.chargeAttack(effFeatures); err != nil {
		return 0, err
	}
	instances := ev.scn.AttackInstances
	if instances <= 0 {
		instances = 8
	}
	s, _ := attack.EmpiricalRobustness(clf, part, instances, rng.Split())
	return s, nil
}

// newClassifier instantiates the (possibly differentially private) model,
// drawing DP noise from the given per-subset stream.
func (ev *Evaluator) newClassifier(spec model.Spec, rng *xrand.RNG) (model.Classifier, error) {
	if ev.scn.Constraints.HasPrivacy() {
		return privacy.New(spec, ev.scn.Constraints.PrivacyEps, rng)
	}
	return model.New(spec)
}

// charge forwards to the meter, normalizing its exhaustion error.
func (ev *Evaluator) charge(cost float64) error {
	if err := ev.meter.Charge(cost); err != nil {
		return err
	}
	return nil
}

// ChargeRanking charges the budget for computing a ranking of the given
// family on the scenario's nominal dimensions. Strategies call it once
// before computing their ranking.
func (ev *Evaluator) ChargeRanking(family budget.RankingFamily) error {
	return ev.charge(budget.RankingCost(family,
		ev.scn.Split.Train.NominalRows(), ev.scn.Split.Train.NominalFeatures()))
}

// ChargeTraining charges one model-training's cost over the selected
// feature count; RFE uses it for its per-round ranking model.
func (ev *Evaluator) ChargeTraining(selectedCount int) error {
	return ev.charge(budget.TrainCost(ev.scn.Split.Train.NominalRows()*3/5,
		ev.trainEff(selectedCount), ev.scn.kindFactor()))
}

// ChargePermutationOverhead charges the extra evaluations permutation
// importance needs (the NB-under-RFE overhead the paper calls out in §6.3).
func (ev *Evaluator) ChargePermutationOverhead(selectedCount, repeats int) error {
	effFeatures := ev.trainEff(selectedCount)
	nomRows := ev.scn.Split.Train.NominalRows() * 3 / 5
	return ev.charge(float64(selectedCount*repeats) * budget.EvalCost(nomRows, effFeatures))
}

// TrainView returns the training split restricted to the mask's selected
// features, served from the evaluator's selection cache when the subset was
// just evaluated (the RFE ranking pattern).
func (ev *Evaluator) TrainView(mask []bool, sel []int) *dataset.Dataset {
	return ev.trainViews.Select(ev.maskKeyBytes(mask), sel)
}

// EvaluateOnTest measures a candidate's scores on the test split without
// charging the budget — post-hoc reporting for the failure analysis
// (Table 4). The model is retrained on the candidate's subset, unless a
// shared memo already carries the subset's test scores; either way the
// safety attack, when declared, is charged exactly once, mirroring the
// physical path.
func (ev *Evaluator) EvaluateOnTest(c *Candidate) (constraint.Scores, error) {
	if c == nil {
		return constraint.Scores{}, fmt.Errorf("core: nil candidate")
	}
	if c.TestEvaluated {
		return c.Test, nil
	}
	sel := selected(c.Mask)
	if len(sel) == 0 {
		return constraint.Scores{}, fmt.Errorf("core: empty candidate")
	}
	key := ev.maskKeyBytes(c.Mask)
	var mk memoKey
	if ev.shared != nil {
		mk = ev.memoKeyFor(key)
		if test, _, ok := ev.shared.lookupTest(mk); ok {
			// The physical path charges the attack inside scoreOn even with
			// charge=false; replay it so spend trajectories stay identical.
			if ev.scn.Constraints.HasSafety() {
				eff := float64(len(sel)) / float64(ev.NumFeatures()) *
					float64(ev.scn.Split.Test.NominalFeatures())
				if err := ev.chargeAttack(eff); err != nil {
					return constraint.Scores{}, err
				}
			}
			c.Test = test
			c.TestEvaluated = true
			return test, nil
		}
	}
	rng := ev.evalRNG(key)
	train := ev.trainViews.Select(key, sel)
	val := ev.valViews.Select(key, sel)
	var bestClf model.Classifier
	bestF1 := math.Inf(-1)
	for _, spec := range ev.scn.specs() {
		clf, err := ev.newClassifier(spec, rng)
		if err != nil {
			return constraint.Scores{}, err
		}
		if err := clf.Fit(train); err != nil {
			return constraint.Scores{}, err
		}
		pred := model.PredictBatchInto(clf, val.X, ev.predA)
		ev.predA = pred
		f1 := metrics.F1Score(val.Y, pred)
		if f1 > bestF1 {
			bestClf, bestF1 = clf, f1
		}
	}
	scores, testCustom, err := ev.scoreOn(bestClf, key, sel, false, rng)
	if err != nil {
		return constraint.Scores{}, err
	}
	if ev.shared != nil {
		ev.shared.attachTest(mk, scores, testCustom)
	}
	c.Test = scores
	c.TestEvaluated = true
	return scores, nil
}

// multiComponents decomposes the Eq. 1 distance into per-constraint
// objectives for NSGA-II, including custom constraints.
func (ev *Evaluator) multiComponents(sc constraint.Scores, custom []float64) []float64 {
	cs := ev.scn.Constraints
	out := make([]float64, 0, ev.NumObjectives())
	f1d := 0.0
	if sc.F1 < cs.MinF1 {
		f1d = (cs.MinF1 - sc.F1) * (cs.MinF1 - sc.F1)
	}
	out = append(out, f1d)
	if cs.HasFeatureCap() {
		d := 0.0
		if sc.FeatureFrac > cs.MaxFeatureFrac {
			d = (sc.FeatureFrac - cs.MaxFeatureFrac) * (sc.FeatureFrac - cs.MaxFeatureFrac)
		}
		out = append(out, d)
	}
	if cs.HasEO() {
		d := 0.0
		if sc.EO < cs.MinEO {
			d = (cs.MinEO - sc.EO) * (cs.MinEO - sc.EO)
		}
		out = append(out, d)
	}
	if cs.HasSafety() {
		d := 0.0
		if sc.Safety < cs.MinSafety {
			d = (cs.MinSafety - sc.Safety) * (cs.MinSafety - sc.Safety)
		}
		out = append(out, d)
	}
	for i, c := range ev.scn.Custom {
		d := 0.0
		if i < len(custom) && custom[i] < c.Min {
			diff := c.Min - custom[i]
			d = diff * diff
		}
		out = append(out, d)
	}
	return out
}

// pruneMulti returns a uniformly terrible multi-objective vector for pruned
// masks.
func (ev *Evaluator) pruneMulti(v float64) []float64 {
	out := make([]float64, ev.NumObjectives())
	for i := range out {
		out[i] = v
	}
	return out
}

func selected(mask []bool) []int {
	var out []int
	for j, b := range mask {
		if b {
			out = append(out, j)
		}
	}
	return out
}
