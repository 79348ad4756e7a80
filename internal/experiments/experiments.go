// Package experiments reproduces the paper's evaluation (Section 5):
// latency-versus-period trade-off curves for the six heuristics over the
// four workload families E1–E4 (Figures 2–7) and the failure-threshold
// table (Table 1). Runs fan out over instances with a bounded worker pool
// and are fully reproducible from the base seed.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/portfolio"
	"pipesched/internal/stats"
	"pipesched/internal/workload"
)

// CurveSpec describes one trade-off figure: a workload family at a given
// size, swept over a grid of constraint values and averaged over Trials
// random instances.
type CurveSpec struct {
	ID         string // e.g. "fig2a"
	Title      string // e.g. "(E1) homogeneous comms, 10 stages, p=10"
	Family     workload.Family
	Stages     int
	Processors int
	Trials     int   // instances averaged per grid point (paper: 50)
	Points     int   // sweep grid size (0 → DefaultPoints)
	BaseSeed   int64 // instance i uses BaseSeed+i
	// Concurrency bounds the elements run at once (0 → GOMAXPROCS).
	Concurrency int
}

// DefaultPoints is the sweep grid size when CurveSpec.Points is zero.
const DefaultPoints = 25

// Series is the aggregated curve of one heuristic: point k plots
// (X[k], Y[k]) and was averaged over Successes[k] of the spec's Trials
// instances. Grid points where every instance failed carry NaN
// coordinates and Successes == 0.
type Series struct {
	Name      string // heuristic display name (paper's plot label)
	HID       string // heuristic identifier H1..H6
	X, Y      []float64
	Successes []int
}

// Curve is a fully computed figure.
type Curve struct {
	Spec   CurveSpec
	Series []Series
	// PeriodGrid and LatencyGrid record the swept constraint values
	// (periods for H1–H4, latencies for H5–H6).
	PeriodGrid  []float64
	LatencyGrid []float64
}

// TradeoffCurve runs the full sweep for one figure.
//
// Period-constrained heuristics sweep a period grid anchored between the
// mean period lower bound and the mean single-processor period, plotting
// (target period, mean achieved latency over successful instances).
// Latency-constrained heuristics sweep a latency grid anchored between the
// mean optimal latency and the mean latency that unconstrained splitting
// reaches, plotting (mean achieved period, target latency). Averaging over
// successes only mirrors the paper, which reports failures separately in
// Table 1.
func TradeoffCurve(spec CurveSpec) Curve {
	spec = normalize(spec)
	instances := workload.GenerateSet(spec.Family, spec.Stages, spec.Processors, spec.Trials, spec.BaseSeed)
	evs := make([]*mapping.Evaluator, len(instances))
	for i, in := range instances {
		evs[i] = in.Evaluator()
	}

	// Grid anchors, averaged over the instance set.
	var lbW, p0W, latLoW, latHiW stats.Welford
	type anchor struct{ lb, p0, latLo, latHi float64 }
	anchors := parMap(spec.Concurrency, evs, func(ev *mapping.Evaluator) anchor {
		single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
		_, optLat := ev.OptimalLatency()
		// The latency the plain splitter reaches when told to chase an
		// impossible period: the far end of the latency axis.
		deep, err := heuristics.SpMonoP{}.MinimizeLatency(ev, 0)
		latHi := deep.Metrics.Latency
		if err != nil {
			var inf *heuristics.InfeasibleError
			if e, ok := err.(*heuristics.InfeasibleError); ok {
				inf = e
				latHi = inf.Best.Metrics.Latency
			}
		}
		return anchor{
			lb:    lowerbound.Period(ev),
			p0:    ev.Period(single),
			latLo: optLat,
			latHi: latHi,
		}
	})
	for _, a := range anchors {
		lbW.Add(a.lb)
		p0W.Add(a.p0)
		latLoW.Add(a.latLo)
		latHiW.Add(a.latHi)
	}
	periodGrid := linspace(lbW.Mean(), p0W.Mean(), spec.Points)
	latHi := latHiW.Mean()
	if latHi <= latLoW.Mean() {
		latHi = latLoW.Mean() * 1.5 // degenerate: splitting never helped
	}
	latencyGrid := linspace(latLoW.Mean(), latHi, spec.Points)

	curve := Curve{Spec: spec, PeriodGrid: periodGrid, LatencyGrid: latencyGrid}
	for _, h := range heuristics.PeriodHeuristics() {
		curve.Series = append(curve.Series, sweepPeriod(spec, evs, h, periodGrid))
	}
	for _, h := range heuristics.LatencyHeuristics() {
		curve.Series = append(curve.Series, sweepLatency(spec, evs, h, latencyGrid))
	}
	return curve
}

func normalize(spec CurveSpec) CurveSpec {
	if spec.Points <= 0 {
		spec.Points = DefaultPoints
	}
	if spec.Trials <= 0 {
		spec.Trials = workload.PaperTrials
	}
	if spec.Concurrency <= 0 {
		spec.Concurrency = runtime.GOMAXPROCS(0)
	}
	return spec
}

func sweepPeriod(spec CurveSpec, evs []*mapping.Evaluator, h heuristics.PeriodConstrained, grid []float64) Series {
	s := Series{
		Name:      h.Name(),
		HID:       h.ID(),
		X:         make([]float64, len(grid)),
		Y:         make([]float64, len(grid)),
		Successes: make([]int, len(grid)),
	}
	// One task per instance: each returns the achieved latency per grid
	// point (NaN on failure). Sweeping inside the task keeps results
	// independent of scheduling order.
	rows := parMap(spec.Concurrency, evs, func(ev *mapping.Evaluator) []float64 {
		row := make([]float64, len(grid))
		for k, target := range grid {
			res, err := h.MinimizeLatency(ev, target)
			if err != nil {
				row[k] = math.NaN()
				continue
			}
			row[k] = res.Metrics.Latency
		}
		return row
	})
	for k, target := range grid {
		var acc stats.Welford
		for _, row := range rows {
			if !math.IsNaN(row[k]) {
				acc.Add(row[k])
			}
		}
		s.Successes[k] = acc.N()
		if acc.N() == 0 {
			s.X[k], s.Y[k] = math.NaN(), math.NaN()
			continue
		}
		s.X[k], s.Y[k] = target, acc.Mean()
	}
	return s
}

func sweepLatency(spec CurveSpec, evs []*mapping.Evaluator, h heuristics.LatencyConstrained, grid []float64) Series {
	s := Series{
		Name:      h.Name(),
		HID:       h.ID(),
		X:         make([]float64, len(grid)),
		Y:         make([]float64, len(grid)),
		Successes: make([]int, len(grid)),
	}
	rows := parMap(spec.Concurrency, evs, func(ev *mapping.Evaluator) []float64 {
		row := make([]float64, len(grid))
		for k, target := range grid {
			res, err := h.MinimizePeriod(ev, target)
			if err != nil {
				row[k] = math.NaN()
				continue
			}
			row[k] = res.Metrics.Period
		}
		return row
	})
	for k, target := range grid {
		var acc stats.Welford
		for _, row := range rows {
			if !math.IsNaN(row[k]) {
				acc.Add(row[k])
			}
		}
		s.Successes[k] = acc.N()
		if acc.N() == 0 {
			s.X[k], s.Y[k] = math.NaN(), math.NaN()
			continue
		}
		s.X[k], s.Y[k] = acc.Mean(), target
	}
	return s
}

// parMap applies fn to every element of in through portfolio.Map, at most
// workers at once on the caller and idle solver-pool workers, and returns
// the results in input order.
func parMap[T, R any](workers int, in []T, fn func(T) R) []R {
	if workers < 1 {
		workers = 1
	}
	out, _ := portfolio.Map(context.Background(), workers, in, func(_ context.Context, v T) R {
		return fn(v)
	})
	return out
}

func linspace(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// ThresholdSpec describes one failure-threshold table (the paper's Table 1
// is four of these, one per family, with p = 10).
type ThresholdSpec struct {
	Family      workload.Family
	Stages      []int // paper: 5, 10, 20, 40
	Processors  int
	Trials      int
	BaseSeed    int64
	Concurrency int
}

// ThresholdTable holds mean failure thresholds: Values[hid][i] is the mean
// threshold of heuristic hid at Stages[i]. For H1–H4 the threshold is the
// smallest period the heuristic can reach (it fails below it); for H5–H6
// it is the optimal latency (they fail below it), hence H5 and H6 always
// coincide — the equality the paper remarks on.
type ThresholdTable struct {
	Spec   ThresholdSpec
	HIDs   []string // row order: H1..H6
	Names  map[string]string
	Values map[string][]float64
}

// FailureThresholds computes the table.
func FailureThresholds(spec ThresholdSpec) ThresholdTable {
	if spec.Trials <= 0 {
		spec.Trials = workload.PaperTrials
	}
	if spec.Concurrency <= 0 {
		spec.Concurrency = runtime.GOMAXPROCS(0)
	}
	tbl := ThresholdTable{
		Spec:   spec,
		Names:  make(map[string]string),
		Values: make(map[string][]float64),
	}
	for _, h := range heuristics.PeriodHeuristics() {
		tbl.HIDs = append(tbl.HIDs, h.ID())
		tbl.Names[h.ID()] = h.Name()
		tbl.Values[h.ID()] = make([]float64, len(spec.Stages))
	}
	for _, h := range heuristics.LatencyHeuristics() {
		tbl.HIDs = append(tbl.HIDs, h.ID())
		tbl.Names[h.ID()] = h.Name()
		tbl.Values[h.ID()] = make([]float64, len(spec.Stages))
	}
	for si, n := range spec.Stages {
		instances := workload.GenerateSet(spec.Family, n, spec.Processors, spec.Trials, spec.BaseSeed)
		type row struct{ vals map[string]float64 }
		rows := parMap(spec.Concurrency, instances, func(in workload.Instance) row {
			ev := in.Evaluator()
			vals := make(map[string]float64, 6)
			for _, h := range heuristics.PeriodHeuristics() {
				v, err := heuristics.MinAchievablePeriod(ev, h)
				if err != nil {
					// Generated workloads are comm-homogeneous, so every
					// paper heuristic supports them; a failure here is a
					// harness bug, like an invalid workload.Config.
					panic(err)
				}
				vals[h.ID()] = v
			}
			lt := heuristics.LatencyFailureThreshold(ev)
			for _, h := range heuristics.LatencyHeuristics() {
				vals[h.ID()] = lt
			}
			return row{vals: vals}
		})
		for _, hid := range tbl.HIDs {
			var acc stats.Welford
			for _, r := range rows {
				acc.Add(r.vals[hid])
			}
			tbl.Values[hid][si] = acc.Mean()
		}
	}
	return tbl
}

// PaperFigures returns the specs of every trade-off figure in the paper's
// evaluation, keyed exactly as DESIGN.md's experiment index.
func PaperFigures() []CurveSpec {
	mk := func(id string, fam workload.Family, n, p int, seed int64) CurveSpec {
		return CurveSpec{
			ID:     id,
			Title:  fmt.Sprintf("(%s) %s — %d stages, p=%d", fam, fam.Description(), n, p),
			Family: fam, Stages: n, Processors: p,
			Trials: workload.PaperTrials, BaseSeed: seed,
		}
	}
	return []CurveSpec{
		mk("fig2a", workload.E1, 10, 10, 1000),
		mk("fig2b", workload.E1, 40, 10, 2000),
		mk("fig3a", workload.E2, 10, 10, 3000),
		mk("fig3b", workload.E2, 40, 10, 4000),
		mk("fig4a", workload.E3, 5, 10, 5000),
		mk("fig4b", workload.E3, 20, 10, 6000),
		mk("fig5a", workload.E4, 5, 10, 7000),
		mk("fig5b", workload.E4, 20, 10, 8000),
		mk("fig6a", workload.E1, 40, 100, 9000),
		mk("fig6b", workload.E2, 40, 100, 10000),
		mk("fig7a", workload.E3, 10, 100, 11000),
		mk("fig7b", workload.E4, 40, 100, 12000),
	}
}

// FigureSpec looks a paper figure up by identifier ("fig2a", or the short
// form "2a").
func FigureSpec(id string) (CurveSpec, bool) {
	for _, spec := range PaperFigures() {
		if spec.ID == id || spec.ID == "fig"+id {
			return spec, true
		}
	}
	return CurveSpec{}, false
}

// PaperTables returns the four Table-1 specs (one per family, p = 10).
func PaperTables() []ThresholdSpec {
	var out []ThresholdSpec
	for i, fam := range workload.Families() {
		out = append(out, ThresholdSpec{
			Family:     fam,
			Stages:     workload.PaperStages(),
			Processors: 10,
			Trials:     workload.PaperTrials,
			BaseSeed:   int64(20000 + 1000*i),
		})
	}
	return out
}
