package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"pipesched/internal/exact"
	"pipesched/internal/mapping"
	"pipesched/internal/portfolio"
	"pipesched/internal/service"
	"pipesched/internal/sim"
)

// relTol is the relative tolerance of every float comparison: the
// daemon and the oracle evaluate the same formulas, and the exact DP
// accepts bounds with a 1e-12 slack.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

func within(v, bound float64) bool { return v <= bound*(1+relTol) }

// outcome is what a correct answer contributes to the per-layer counts.
type outcome struct {
	elements   int      // solved or proven-infeasible problem instances
	infeasible int      // of which the DP proved infeasible
	solvers    []string // winning solver of each solved solve or batch element
	mappings   []checkedMapping
}

// checkedMapping is a verified mapping kept for the simulator cross-check.
type checkedMapping struct {
	x *instance
	m *mapping.Mapping
}

// optKey identifies one exact reference solve.
type optKey struct {
	x     *instance
	obj   portfolio.Objective
	bound float64
}

// optimum is the exact DP's answer: the optimal objective value, or
// feasible=false when the DP proves the bound infeasible.
type optimum struct {
	value    float64
	feasible bool
}

// oracle checks answers against the cost model and the exact DP. It
// shares the paper's cost model with the daemon (mapping.Evaluator, on
// a fresh evaluator) but recomputes everything from the returned
// intervals; sim.ValidateModel, which shares no code with that model,
// cross-checks a sample in traced runs.
type oracle struct {
	mu     sync.Mutex
	optima map[optKey]optimum
}

func newOracle() *oracle { return &oracle{optima: make(map[optKey]optimum)} }

// exactOptimum runs the exact DP for one (instance, objective, bound).
func exactOptimum(k optKey) optimum {
	ev := mapping.NewEvaluator(k.x.in.App, k.x.in.Plat)
	var (
		res exact.Result
		err error
	)
	if k.obj == portfolio.MinimizePeriod {
		res, err = exact.MinPeriodUnderLatency(ev, k.bound)
	} else {
		res, err = exact.MinLatencyUnderPeriod(ev, k.bound)
	}
	if err != nil {
		return optimum{}
	}
	return optimum{value: objectiveValue(k.obj, res.Metrics), feasible: true}
}

func objectiveValue(obj portfolio.Objective, m mapping.Metrics) float64 {
	if obj == portfolio.MinimizePeriod {
		return m.Period
	}
	return m.Latency
}

// precompute runs the exact DP, off the clock and on workers
// goroutines, for every DP-eligible solve among reqs.
func (o *oracle) precompute(reqs []*request, workers int) {
	var keys []optKey
	seen := make(map[optKey]bool)
	o.mu.Lock()
	for _, r := range reqs {
		if r.path != pathSolve || !r.insts[0].refs().exact {
			continue
		}
		k := optKey{r.insts[0], r.obj, r.bound}
		if _, done := o.optima[k]; !done && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	o.mu.Unlock()
	res := make([]optimum, len(keys))
	parallel(len(keys), workers, func(i int) { res[i] = exactOptimum(keys[i]) })
	o.mu.Lock()
	for i, k := range keys {
		o.optima[k] = res[i]
	}
	o.mu.Unlock()
}

func (o *oracle) optimum(k optKey) optimum {
	o.mu.Lock()
	v, ok := o.optima[k]
	o.mu.Unlock()
	if !ok {
		v = exactOptimum(k)
		o.mu.Lock()
		o.optima[k] = v
		o.mu.Unlock()
	}
	return v
}

// parallel runs fn(0..n-1) on at most workers goroutines.
func parallel(n, workers int, fn func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// check returns the outcome of a correct answer, or the reason it is
// wrong. Transport errors, 5xx and any status other than 200 or a
// DP-proven 422 are failures.
func (o *oracle) check(a *answer) (outcome, error) {
	if a.err != nil {
		return outcome{}, fmt.Errorf("transport: %w", a.err)
	}
	r := a.req
	switch a.status {
	case http.StatusOK:
	case http.StatusUnprocessableEntity:
		if r.path == pathSolve && o.provenInfeasible(r.insts[0], r.obj, r.bound) {
			return outcome{elements: 1, infeasible: 1}, nil
		}
		return outcome{}, fmt.Errorf("422 without a DP proof of infeasibility: %s", bytes.TrimSpace(a.body))
	default:
		return outcome{}, fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(a.body))
	}
	switch r.path {
	case pathSolve:
		return o.checkSolve(r, a.body)
	case pathSweep:
		return o.checkSweep(r, a.body)
	default:
		return o.checkBatch(r, a.body)
	}
}

func (o *oracle) provenInfeasible(x *instance, obj portfolio.Objective, bound float64) bool {
	return x.refs().exact && !o.optimum(optKey{x, obj, bound}).feasible
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	return nil
}

// rebuild checks one returned mapping: it must be a valid interval
// mapping of the instance, and a fresh evaluator must reproduce the
// reported period and latency.
func rebuild(x *instance, ivs []service.IntervalJSON, period, latency float64) (*mapping.Mapping, error) {
	mivs := make([]mapping.Interval, len(ivs))
	for i, iv := range ivs {
		mivs[i] = mapping.Interval{Start: iv.Start, End: iv.End, Proc: iv.Proc}
	}
	m, err := mapping.New(x.in.App, x.in.Plat, mivs)
	if err != nil {
		return nil, fmt.Errorf("%s: invalid mapping: %w", x.label, err)
	}
	ev := mapping.NewEvaluator(x.in.App, x.in.Plat)
	if p := ev.Period(m); !near(p, period) {
		return nil, fmt.Errorf("%s: reported period %v, mapping has %v", x.label, period, p)
	}
	if l := ev.Latency(m); !near(l, latency) {
		return nil, fmt.Errorf("%s: reported latency %v, mapping has %v", x.label, latency, l)
	}
	return m, nil
}

// boundHolds checks the constraint the objective puts on m.
func boundHolds(x *instance, obj portfolio.Objective, bound float64, m mapping.Metrics) error {
	if obj == portfolio.MinimizePeriod && !within(m.Latency, bound) {
		return fmt.Errorf("%s: latency %v exceeds bound %v", x.label, m.Latency, bound)
	}
	if obj == portfolio.MinimizeLatency && !within(m.Period, bound) {
		return fmt.Errorf("%s: period %v exceeds bound %v", x.label, m.Period, bound)
	}
	return nil
}

// optimal checks, on DP-eligible platforms, that the objective equals
// the exact optimum under the bound.
func (o *oracle) optimal(x *instance, obj portfolio.Objective, bound float64, m mapping.Metrics) error {
	if !x.refs().exact {
		return nil
	}
	opt := o.optimum(optKey{x, obj, bound})
	if !opt.feasible {
		return fmt.Errorf("%s: answered a bound the DP proves infeasible", x.label)
	}
	if v := objectiveValue(obj, m); !near(v, opt.value) {
		return fmt.Errorf("%s: %s %v, exact optimum %v", x.label, obj, v, opt.value)
	}
	return nil
}

func (o *oracle) checkSolve(r *request, body []byte) (outcome, error) {
	var resp service.SolveResponse
	if err := decodeStrict(body, &resp); err != nil {
		return outcome{}, err
	}
	x := r.insts[0]
	if resp.Objective != objectiveName(r.obj) || resp.Mode != "portfolio" || resp.Bound != r.bound {
		return outcome{}, fmt.Errorf("%s: answer echoes %s/%s/%v, asked %s/portfolio/%v",
			x.label, resp.Objective, resp.Mode, resp.Bound, objectiveName(r.obj), r.bound)
	}
	m, err := rebuild(x, resp.Intervals, resp.Period, resp.Latency)
	if err != nil {
		return outcome{}, err
	}
	met := mapping.Metrics{Period: resp.Period, Latency: resp.Latency}
	if err := errors.Join(boundHolds(x, r.obj, r.bound, met), o.optimal(x, r.obj, r.bound, met)); err != nil {
		return outcome{}, err
	}
	return outcome{elements: 1, solvers: []string{resp.Solver}, mappings: []checkedMapping{{x, m}}}, nil
}

// checkFront verifies a frontier: sorted by period, no point dominating
// another, and every candidate covered by some point.
func checkFront(label string, front, candidates []mapping.Metrics) error {
	for i, p := range front {
		if i > 0 && p.Period < front[i-1].Period {
			return fmt.Errorf("%s: frontier not sorted by period", label)
		}
		for j, q := range front {
			if i != j && q.Dominates(p) {
				return fmt.Errorf("%s: frontier point %d dominates point %d", label, j, i)
			}
		}
	}
	for _, c := range candidates {
		covered := false
		for _, p := range front {
			if within(p.Period, c.Period) && within(p.Latency, c.Latency) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("%s: frontier misses non-dominated point %+v", label, c)
		}
	}
	return nil
}

func (o *oracle) checkSweep(r *request, body []byte) (outcome, error) {
	var resp service.SweepResponse
	if err := decodeStrict(body, &resp); err != nil {
		return outcome{}, err
	}
	x := r.insts[0]
	if len(resp.Points) == 0 {
		return outcome{}, fmt.Errorf("%s: empty sweep", x.label)
	}
	out := outcome{elements: 1}
	front := make([]mapping.Metrics, len(resp.Points))
	for i, pt := range resp.Points {
		m, err := rebuild(x, pt.Intervals, pt.Period, pt.Latency)
		if err != nil {
			return outcome{}, err
		}
		front[i] = mapping.Metrics{Period: pt.Period, Latency: pt.Latency}
		out.mappings = append(out.mappings, checkedMapping{x, m})
	}
	if err := checkFront(x.label, front, nil); err != nil {
		return outcome{}, err
	}
	return out, nil
}

func (o *oracle) checkBatch(r *request, body []byte) (outcome, error) {
	var resp service.BatchResponse
	if err := decodeStrict(body, &resp); err != nil {
		return outcome{}, err
	}
	if len(resp.Results) != len(r.insts) {
		return outcome{}, fmt.Errorf("batch %d: %d results for %d instances", r.id, len(resp.Results), len(r.insts))
	}
	var out outcome
	solved := make([]mapping.Metrics, 0, len(r.insts))
	solvedAt := make(map[int]mapping.Metrics, len(r.insts))
	for i, res := range resp.Results {
		x := r.insts[i]
		if res.Index != i {
			return outcome{}, fmt.Errorf("batch %d: result %d has index %d", r.id, i, res.Index)
		}
		if want := r.elementBound(x); !near(res.Bound, want) {
			return outcome{}, fmt.Errorf("%s: resolved bound %v, want %v", x.label, res.Bound, want)
		}
		if res.Error != "" {
			if !o.provenInfeasible(x, r.obj, res.Bound) {
				return outcome{}, fmt.Errorf("%s: batch element failed without a DP proof of infeasibility: %s", x.label, res.Error)
			}
			out.elements++
			out.infeasible++
			continue
		}
		m, err := rebuild(x, res.Intervals, res.Period, res.Latency)
		if err != nil {
			return outcome{}, err
		}
		met := mapping.Metrics{Period: res.Period, Latency: res.Latency}
		if err := boundHolds(x, r.obj, res.Bound, met); err != nil {
			return outcome{}, err
		}
		out.elements++
		out.solvers = append(out.solvers, res.Solver)
		out.mappings = append(out.mappings, checkedMapping{x, m})
		solved = append(solved, met)
		solvedAt[i] = met
	}
	if resp.Solved != len(solved) || resp.Failed != len(r.insts)-len(solved) {
		return outcome{}, fmt.Errorf("batch %d: reports %d solved / %d failed, results show %d solved", r.id, resp.Solved, resp.Failed, len(solved))
	}
	front := make([]mapping.Metrics, len(resp.Front))
	for i, fp := range resp.Front {
		met, ok := solvedAt[fp.Instance]
		if !ok || !near(met.Period, fp.Period) || !near(met.Latency, fp.Latency) {
			return outcome{}, fmt.Errorf("batch %d: frontier point %d does not match result %d", r.id, i, fp.Instance)
		}
		front[i] = mapping.Metrics{Period: fp.Period, Latency: fp.Latency}
	}
	if err := checkFront("batch "+strconv.Itoa(r.id), front, solved); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// verdict is the checked state of one answer.
type verdict struct {
	out outcome
	err error
}

// checkAll checks every answer on workers goroutines. Answers with the
// same key, status and body share one check: the verdict is a function
// of those three alone.
func (o *oracle) checkAll(answers []answer, workers int) []verdict {
	type memoKey struct {
		key    int
		status int
		sum    [32]byte
	}
	reqs := make([]*request, 0, len(answers))
	for i := range answers {
		if answers[i].err == nil {
			reqs = append(reqs, answers[i].req)
		}
	}
	o.precompute(reqs, workers)
	first := make(map[memoKey]int, len(answers))
	owner := make([]int, len(answers))
	var todo []int
	for i := range answers {
		a := &answers[i]
		if a.err != nil {
			owner[i] = i
			todo = append(todo, i)
			continue
		}
		k := memoKey{a.req.key, a.status, sha256.Sum256(a.body)}
		if j, ok := first[k]; ok {
			owner[i] = j
			continue
		}
		first[k] = i
		owner[i] = i
		todo = append(todo, i)
	}
	out := make([]verdict, len(answers))
	parallel(len(todo), workers, func(t int) {
		i := todo[t]
		res, err := o.check(&answers[i])
		out[i] = verdict{res, err}
	})
	for i, j := range owner {
		if j != i {
			out[i] = out[j]
		}
	}
	return out
}

// validateSample runs the discrete-event simulator on up to n checked
// mappings, in answer order.
func validateSample(vs []verdict, n int) (checked int, err error) {
	for _, v := range vs {
		for _, cm := range v.out.mappings {
			if checked == n {
				return checked, nil
			}
			ev := mapping.NewEvaluator(cm.x.in.App, cm.x.in.Plat)
			if e := sim.ValidateModel(ev, cm.m, 1e-9); e != nil {
				return checked, fmt.Errorf("%s: %w", cm.x.label, e)
			}
			checked++
		}
	}
	return checked, nil
}

// digest hashes the first n answers in request order (id, status and
// body; not the serving node or cache tier), so two commits run on the
// same seed can be compared for identical output.
func digest(answers []answer, n int) (string, int) {
	sorted := make([]*answer, len(answers))
	for i := range answers {
		sorted[i] = &answers[i]
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].req.id < sorted[j].req.id })
	h := sha256.New()
	count := 0
	for _, a := range sorted {
		if count == n {
			break
		}
		fmt.Fprintf(h, "%d %d %d\n", a.req.id, a.status, len(a.body))
		h.Write(a.body)
		count++
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), count
}
