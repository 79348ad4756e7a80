// Package exact provides optimal reference solvers for the bi-criteria
// interval mapping problem on Communication Homogeneous platforms. The
// problem is NP-hard (Theorem 2 of the paper), so everything here is
// exponential in the platform's structure and gated to tractable
// instances; the solvers exist to validate the polynomial heuristics, to
// win portfolio races where they fit, and to compute exact Pareto fronts
// in tests, examples and ablation benchmarks.
//
// The production engine is a speed-class-compressed dynamic program
// (compressed.go): processors of equal speed are interchangeable, so the
// DP tracks per-class usage counts instead of a 2^p used-set bitmask,
// shrinking the state space to ∏_k (c_k+1) over the class sizes c_k. The
// historical bitmask DP is retained (legacy_oracle_test.go) as an
// independent oracle the test-suite cross-checks against, alongside a
// plain exhaustive enumeration.
package exact

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pipesched/internal/mapping"
	"pipesched/internal/platform"
)

// MaxStates caps the compressed state space ∏_k (c_k+1) accepted by the
// solvers, which allocate O(∏(c_k+1) · n) state. The cap admits every
// platform of up to 16 processors (worst case: all speeds distinct,
// 2^16 states) and arbitrarily larger platforms whose speeds repeat —
// a homogeneous 100-processor platform needs only 101 states.
const MaxStates = 1 << 16

// MaxProcs is the historical processor cap of the bitmask dynamic
// program, which allocated O(2^p · n) state regardless of speed
// structure. It still bounds the legacy oracle used in tests; production
// eligibility is decided by Eligible against MaxStates instead.
const MaxProcs = 14

// Result is an optimal mapping together with its metrics.
type Result struct {
	Mapping *mapping.Mapping
	Metrics mapping.Metrics
}

// ErrInfeasible is returned when no interval mapping satisfies the
// requested constraint.
var ErrInfeasible = errors.New("exact: no interval mapping satisfies the constraint")

// ErrNotBelow is returned by MinPeriodUnderLatencyBelow when no interval
// mapping with a period strictly below the ceiling meets the latency
// bound.
var ErrNotBelow = errors.New("exact: no interval mapping below the ceiling satisfies the constraint")

// Eligible reports whether the exact solvers accept the platform: it must
// be Communication Homogeneous with a compressed state space within
// MaxStates. This is the gate portfolio races and batch solvers key their
// exact-DP participation on — note it depends on the speed-class
// structure, not the raw processor count.
func Eligible(plat *platform.Platform) bool {
	return plat.Kind() == platform.CommHomogeneous && plat.ClassStateSpace() <= MaxStates
}

func guard(ev *mapping.Evaluator) error {
	plat := ev.Platform()
	if plat.Kind() != platform.CommHomogeneous {
		return errors.New("exact: solvers are defined on comm-homogeneous platforms")
	}
	if s := plat.ClassStateSpace(); s > MaxStates {
		return fmt.Errorf("exact: compressed state space %d (%d processors in %d speed classes) exceeds limit %d",
			s, plat.Processors(), plat.SpeedClasses(), MaxStates)
	}
	return nil
}

// MinPeriod returns an interval mapping of minimum period (the NP-hard
// objective of Theorem 2), optimal over all interval mappings.
func MinPeriod(ev *mapping.Evaluator) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	_, state, ok := a.run(objMinPeriod, 0)
	if !ok {
		return Result{}, ErrInfeasible
	}
	return a.result(state)
}

// MinLatencyUnderPeriod returns the minimum-latency interval mapping among
// those of period ≤ maxPeriod, or ErrInfeasible when none exists. This is
// the exact counterpart of the paper's period-constrained heuristics.
func MinLatencyUnderPeriod(ev *mapping.Evaluator, maxPeriod float64) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	_, state, ok := a.run(objMinLatency, maxPeriod*slack)
	if !ok {
		return Result{}, ErrInfeasible
	}
	return a.result(state)
}

// MinPeriodUnderLatency returns the minimum-period interval mapping among
// those of latency ≤ maxLatency, or ErrInfeasible when none exists. It is
// MinPeriodUnderLatencyBelow with no ceiling.
func MinPeriodUnderLatency(ev *mapping.Evaluator, maxLatency float64) (Result, error) {
	return MinPeriodUnderLatencyBelow(ev, maxLatency, nil)
}

// MinPeriodUnderLatencyBelow is MinPeriodUnderLatency for a caller that
// only wants a period strictly below ceiling() — a portfolio race whose
// incumbent already holds a mapping of that period. The period only takes
// values among the distinct interval cycle-times — at most n(n+1)/2·K
// over the K speed classes — so the solver bisects that candidate set:
// each probe is an early-exit feasibility test in the shared arena, and
// only the chosen candidate gets a full fill and a reconstruction.
//
// ceiling is polled before every probe, and the bisection is capped at
// the largest candidate strictly below it. When no candidate below the
// ceiling is feasible the result is ErrNotBelow, or ErrInfeasible when the
// ceiling excluded no candidate. The mapping an unbounded solve returns
// never has a period below its candidate, so ErrNotBelow only withholds a
// mapping whose period reaches the ceiling. A nil ceiling never binds. Any
// mapping returned is bit-identical to MinPeriodUnderLatency's.
func MinPeriodUnderLatencyBelow(ev *mapping.Evaluator, maxLatency float64, ceiling func() float64) (Result, error) {
	if err := guard(ev); err != nil {
		return Result{}, err
	}
	a := acquireArena(ev)
	defer a.release()
	cands := a.candidates()
	tail := a.latencyTail()
	latBound := maxLatency * slack
	// Every candidate below lo is infeasible; hi is the smallest candidate
	// proven feasible (len(cands) until one is).
	lo, hi := 0, len(cands)
	for {
		top := len(cands) // cands[:top] lie strictly below the ceiling
		if ceiling != nil {
			top = sort.SearchFloat64s(cands, ceiling())
		}
		if hi < top {
			if lo == hi {
				break
			}
			mid := (lo + hi) / 2
			if a.probe(cands[mid]*slack, tail, latBound) {
				hi = mid
			} else {
				lo = mid + 1
			}
			continue
		}
		// Nothing below the ceiling is proven feasible yet: the largest
		// candidate under it decides whether anything there is.
		if lo >= top {
			if top == len(cands) {
				return Result{}, ErrInfeasible
			}
			return Result{}, ErrNotBelow
		}
		if a.probe(cands[top-1]*slack, tail, latBound) {
			hi = top - 1
		} else {
			lo = top
		}
	}
	v, state, ok := a.run(objMinLatency, cands[hi]*slack)
	if !ok || v+tail > latBound {
		return Result{}, fmt.Errorf("exact: bisection lost feasibility at %g", cands[hi])
	}
	return a.result(state)
}

// Enumerate calls fn for every valid interval mapping (exhaustive;
// exponential — use on tiny instances only). The used set is a slice, not
// a bitmask, so platforms beyond 32 processors — which the class-keyed
// gate can admit — enumerate correctly.
func Enumerate(ev *mapping.Evaluator, fn func(*mapping.Mapping)) {
	app, plat := ev.Pipeline(), ev.Platform()
	n, p := app.Stages(), plat.Processors()
	used := make([]bool, p+1)
	var rec func(start int, acc []mapping.Interval)
	rec = func(start int, acc []mapping.Interval) {
		if start > n {
			m, err := mapping.New(app, plat, acc)
			if err != nil {
				panic(err)
			}
			fn(m)
			return
		}
		if len(acc) == p {
			return
		}
		for end := start; end <= n; end++ {
			for u := 1; u <= p; u++ {
				if used[u] {
					continue
				}
				used[u] = true
				rec(end+1, append(acc, mapping.Interval{Start: start, End: end, Proc: u}))
				used[u] = false
			}
		}
	}
	rec(1, nil)
}

// BruteMinPeriod computes the minimum period by exhaustive enumeration —
// an independent oracle for MinPeriod in tests.
func BruteMinPeriod(ev *mapping.Evaluator) Result {
	var best Result
	found := false
	Enumerate(ev, func(m *mapping.Mapping) {
		met := ev.Metrics(m)
		if !found || met.Period < best.Metrics.Period {
			best = Result{Mapping: m, Metrics: met}
			found = true
		}
	})
	if !found {
		panic("exact: enumeration produced no mapping")
	}
	return best
}

// ParetoPoint is one non-dominated (period, latency) trade-off with a
// witness mapping.
type ParetoPoint struct {
	Metrics mapping.Metrics
	Mapping *mapping.Mapping
}

// ParetoFront returns the exact Pareto front of (period, latency) over all
// interval mappings, sorted by increasing period (hence decreasing
// latency).
//
// The sweep is incremental: the sorted candidate cycle-time set and the
// solver arena are built once and shared by every probe. Candidates below
// the exact minimum period (one min-period DP) are skipped outright, each
// surviving candidate costs one min-latency DP whose value is compared
// before any mapping is reconstructed, and the sweep stops as soon as the
// latency reaches the Lemma-1 optimum — no later bound can improve it.
func ParetoFront(ev *mapping.Evaluator) ([]ParetoPoint, error) {
	if err := guard(ev); err != nil {
		return nil, err
	}
	a := acquireArena(ev)
	defer a.release()
	cands := a.candidates()
	tail := a.latencyTail()
	_, optLat := ev.OptimalLatency()

	// The minimum period is itself a candidate cycle-time (a period is the
	// max cycle of some mapping); everything below it is infeasible.
	minP, _, ok := a.run(objMinPeriod, 0)
	if !ok {
		return nil, ErrInfeasible
	}
	first := sort.SearchFloat64s(cands, minP)

	var points []ParetoPoint
	prevLatency := math.Inf(1)
	for _, c := range cands[first:] {
		v, state, ok := a.run(objMinLatency, c*slack)
		if !ok {
			continue // numeric edge: bound still below every mapping
		}
		if lat := v + tail; lat < prevLatency-1e-12 {
			res, err := a.result(state)
			if err != nil {
				return nil, err
			}
			points = append(points, ParetoPoint{Metrics: res.Metrics, Mapping: res.Mapping})
			prevLatency = lat
			if lat <= optLat {
				break // Lemma 1: latency cannot drop further
			}
		}
	}
	// The achieved period of a solution can be smaller than the candidate
	// bound that produced it, so earlier points may be dominated: run a
	// standard dominance sweep on (period asc, latency asc).
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i].Metrics, points[j].Metrics
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		return a.Latency < b.Latency
	})
	var front []ParetoPoint
	bestLatency := math.Inf(1)
	for _, pt := range points {
		if pt.Metrics.Latency < bestLatency-1e-12 {
			front = append(front, pt)
			bestLatency = pt.Metrics.Latency
		}
	}
	return front, nil
}
