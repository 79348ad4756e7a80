package heuristics

import (
	"errors"
	"math"

	"pipesched/internal/mapping"
)

// Mid-race cancellation: when several solvers chase the same bound, the
// slow ones often spend most of their time provably unable to win — a
// 3-Explo trajectory whose latency has already climbed past a finished
// competitor's result can only lose the selection, whatever it does
// next. Each raced solver therefore carries a cheap running bound on its
// final result and polls the race's incumbent between splits, aborting
// with ErrRaceLost the moment the bound proves defeat.
//
// Cancellation must be invisible in results: a solver is aborted only
// when its *final* outcome could not be selected under the portfolio's
// deterministic tie-breaking. Two facts make the bounds sound:
//
//   - Latency never decreases along a splitting trajectory. Processors
//     enroll fastest-first, so an accepted split moves work from an
//     enrolled processor onto itself plus strictly-slower free ones and
//     adds non-negative communication terms: dLat ≥ 0. The running
//     latency is thus a lower bound on the final latency.
//
//   - The final period refines the current partition. Splits only ever
//     divide an interval among its own processor and free ones, so every
//     current interval's stages end, finally, on a region of total speed
//     at most s_j + S_free — its contribution to the final period is at
//     least W_j/(s_j + S_free). The max of these is a lower bound on the
//     final period however the trajectory continues.
//
// Aborts additionally require a margin (lt, the engine's strict
// comparator): a solver that would finish *equal* to the incumbent is
// never cancelled, because equality can still win on portfolio order.
// And every abort requires a feasible incumbent: with one in hand the
// race's found flag is true, so the InfeasibleError bookkeeping a
// cancelled solver skips (the "closest" failure) is never read.

// ErrRaceLost reports that a raced solver abandoned its run because its
// running bound proved it could not be selected over the incumbent. The
// portfolio treats such attempts exactly as lost races: excluded from
// selection and from infeasibility reporting.
var ErrRaceLost = errors.New("heuristics: solver abandoned mid-race (bound proves it cannot win)")

// Incumbent carries the best finished metric of a portfolio race —
// smallest latency for period-constrained races, smallest period for
// latency-constrained ones. A race runs its members one after another on
// one goroutine, offering each finished result before the next member
// starts, so the running member polls a plain value: reading it costs
// nanoseconds and allocates nothing. An Incumbent is not safe for
// concurrent use.
type Incumbent struct {
	best float64 // the best offered value
}

// NewIncumbent returns an empty incumbent (best = +Inf).
func NewIncumbent() *Incumbent {
	in := &Incumbent{}
	in.Reset()
	return in
}

// Reset empties the incumbent (best = +Inf) so races can pool them.
func (in *Incumbent) Reset() { in.best = math.Inf(1) }

// Offer lowers the incumbent to v unless it is already at most v.
func (in *Incumbent) Offer(v float64) {
	if !(in.best <= v) {
		in.best = v
	}
}

// Best returns the current incumbent value (+Inf when nothing finished).
func (in *Incumbent) Best() float64 { return in.best }

// PeriodRacer is implemented by period-constrained heuristics that can
// poll a race incumbent (carrying the best finished latency) and abort
// mid-run with ErrRaceLost once they provably cannot win.
type PeriodRacer interface {
	MinimizeLatencyRaced(ev *mapping.Evaluator, maxPeriod float64, inc *Incumbent) (Result, error)
}

// LatencyRacer is the latency-constrained twin: the incumbent carries
// the best finished period.
type LatencyRacer interface {
	MinimizePeriodRaced(ev *mapping.Evaluator, maxLatency float64, inc *Incumbent) (Result, error)
}

// predictMode selects what an infeasibility prediction does: nothing,
// abort the whole solve as race-lost (requires a feasible incumbent), or
// abort the current trial as a plain failure (H4's bisection trials,
// where the early failure is outcome-identical and needs no incumbent).
type predictMode uint8

const (
	predictOff predictMode = iota
	predictLost
	predictFail
)

// raceWatch is the engine's cancellation hook set; the zero value (solo
// runs) disables everything.
type raceWatch struct {
	inc      *Incumbent
	watchLat bool // abort when the incumbent beats the running latency
	watchPer bool // abort when the incumbent beats the refinement period bound
	predict  predictMode
	lost     bool // set when an abort counts as a lost race
}

// racePoll is called once per split iteration; it reports whether the
// trajectory should stop. target is splitUntil's period target (≤ 0 when
// the trajectory is not period-seeking). The poll allocates nothing.
func (st *state) racePoll(target float64) bool {
	r := &st.race
	if r.inc == nil && r.predict != predictFail {
		return false
	}
	best := math.Inf(1)
	if r.inc != nil {
		best = r.inc.Best()
	}
	hasInc := !math.IsInf(best, 1)
	if r.watchLat && lt(best, st.lat) {
		r.lost = true
		return true
	}
	needPredict := target > 0 &&
		(r.predict == predictFail || (r.predict == predictLost && hasInc))
	needPeriod := r.watchPer && hasInc
	if !needPredict && !needPeriod {
		return false
	}
	bound := st.refinementPeriodBound()
	if needPredict && lt(target, bound) {
		if r.predict == predictLost {
			r.lost = true
		}
		return true
	}
	if needPeriod && lt(best, bound) {
		r.lost = true
		return true
	}
	return false
}

// refinementPeriodBound returns a lower bound on the final period of any
// continuation of the current trajectory: each interval's stages finish
// on its processor plus a subset of the currently-free ones (total speed
// ≤ s_j + S_free), and communication terms only add, so its region's
// worst cycle is at least W_j/(s_j + S_free).
func (st *state) refinementPeriodBound() float64 {
	freeSpeed := 0.0
	for _, p := range st.free[st.freeOff:] {
		freeSpeed += st.speed[p]
	}
	bound := 0.0
	for _, iv := range st.ivs {
		if b := (st.work[iv.End] - st.work[iv.Start-1]) / (st.speed[iv.Proc] + freeSpeed); b > bound {
			bound = b
		}
	}
	return bound
}

// MinimizeLatencyRaced implements PeriodRacer for H1.
func (h SpMonoP) MinimizeLatencyRaced(ev *mapping.Evaluator, maxPeriod float64, inc *Incumbent) (Result, error) {
	return periodConstrainedSplit(ev, maxPeriod, splitOptions{rule: selectMono, maxLatency: math.Inf(1)}, h.Name(), inc)
}

// MinimizeLatencyRaced implements PeriodRacer for H2.
func (h ThreeExploMono) MinimizeLatencyRaced(ev *mapping.Evaluator, maxPeriod float64, inc *Incumbent) (Result, error) {
	return periodConstrainedSplit(ev, maxPeriod, splitOptions{rule: selectMono, threeWay: true, maxLatency: math.Inf(1)}, h.Name(), inc)
}

// MinimizeLatencyRaced implements PeriodRacer for H3.
func (h ThreeExploBi) MinimizeLatencyRaced(ev *mapping.Evaluator, maxPeriod float64, inc *Incumbent) (Result, error) {
	return periodConstrainedSplit(ev, maxPeriod, splitOptions{rule: selectBi, threeWay: true, maxLatency: math.Inf(1)}, h.Name(), inc)
}

// MinimizePeriodRaced implements LatencyRacer for H5.
func (h SpMonoL) MinimizePeriodRaced(ev *mapping.Evaluator, maxLatency float64, inc *Incumbent) (Result, error) {
	return latencyConstrained(ev, maxLatency, splitOptions{rule: selectMono, maxLatency: maxLatency}, h.Name(), inc)
}

// MinimizePeriodRaced implements LatencyRacer for H6.
func (h SpBiL) MinimizePeriodRaced(ev *mapping.Evaluator, maxLatency float64, inc *Incumbent) (Result, error) {
	return latencyConstrained(ev, maxLatency, splitOptions{rule: selectBi, maxLatency: maxLatency}, h.Name(), inc)
}
