// Benchmarks regenerating (at reduced trial counts — full paper scale runs
// via cmd/experiments) every table and figure of the paper's evaluation,
// plus micro-benchmarks of the individual algorithms and ablations of the
// design choices called out in DESIGN.md.
package pipesched_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pipesched"
	"pipesched/internal/chains"
	"pipesched/internal/deal"
	"pipesched/internal/exact"
	"pipesched/internal/experiments"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/onetoone"
	"pipesched/internal/portfolio"
	"pipesched/internal/sim"
	"pipesched/internal/workload"
)

// benchFigure runs one paper figure's sweep at bench scale. Shapes match
// the paper runs exactly; only Trials and Points are reduced so a full
// -bench=. pass stays tractable.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiments.FigureSpec(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	spec.Trials = 6
	spec.Points = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := experiments.TradeoffCurve(spec)
		if len(curve.Series) != 6 {
			b.Fatalf("%s: %d series", id, len(curve.Series))
		}
	}
}

// --- Figures 2–7: one benchmark per sub-figure -------------------------

func BenchmarkFig2a(b *testing.B) { benchFigure(b, "2a") } // E1, n=10, p=10
func BenchmarkFig2b(b *testing.B) { benchFigure(b, "2b") } // E1, n=40, p=10
func BenchmarkFig3a(b *testing.B) { benchFigure(b, "3a") } // E2, n=10, p=10
func BenchmarkFig3b(b *testing.B) { benchFigure(b, "3b") } // E2, n=40, p=10
func BenchmarkFig4a(b *testing.B) { benchFigure(b, "4a") } // E3, n=5, p=10
func BenchmarkFig4b(b *testing.B) { benchFigure(b, "4b") } // E3, n=20, p=10
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "5a") } // E4, n=5, p=10
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "5b") } // E4, n=20, p=10
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") } // E1, n=40, p=100
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") } // E2, n=40, p=100
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a") } // E3, n=10, p=100
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b") } // E4, n=40, p=100

// --- Table 1: failure thresholds, one benchmark per family -------------

func benchTable(b *testing.B, fam workload.Family) {
	b.Helper()
	spec := experiments.ThresholdSpec{
		Family: fam, Stages: []int{5, 10, 20, 40}, Processors: 10,
		Trials: 6, BaseSeed: 100,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := experiments.FailureThresholds(spec)
		if len(tbl.HIDs) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable1E1(b *testing.B) { benchTable(b, workload.E1) }
func BenchmarkTable1E2(b *testing.B) { benchTable(b, workload.E2) }
func BenchmarkTable1E3(b *testing.B) { benchTable(b, workload.E3) }
func BenchmarkTable1E4(b *testing.B) { benchTable(b, workload.E4) }

// --- Micro-benchmarks: heuristics on a fixed mid-sized instance --------

func benchEvaluator(n, p int, seed int64) *pipesched.Evaluator {
	in := workload.Generate(workload.Config{Family: workload.E2, Stages: n, Processors: p, Seed: seed})
	return in.Evaluator()
}

func benchHeuristicPeriod(b *testing.B, h pipesched.PeriodConstrained, n, p int) {
	ev := benchEvaluator(n, p, 42)
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	bound := ev.Period(single) * 0.4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.MinimizeLatency(ev, bound); err != nil {
			bound *= 1.2 // back off until feasible, then stay there
		}
	}
}

func BenchmarkH1SpMonoP(b *testing.B) { benchHeuristicPeriod(b, heuristics.SpMonoP{}, 40, 10) }
func BenchmarkH2ThreeExploMono(b *testing.B) {
	benchHeuristicPeriod(b, heuristics.ThreeExploMono{}, 40, 10)
}
func BenchmarkH3ThreeExploBi(b *testing.B) {
	benchHeuristicPeriod(b, heuristics.ThreeExploBi{}, 40, 10)
}
func BenchmarkH4SpBiP(b *testing.B) { benchHeuristicPeriod(b, heuristics.SpBiP{}, 40, 10) }

func benchHeuristicLatency(b *testing.B, h pipesched.LatencyConstrained, n, p int) {
	ev := benchEvaluator(n, p, 42)
	_, optLat := ev.OptimalLatency()
	bound := optLat * 1.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.MinimizePeriod(ev, bound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkH5SpMonoL(b *testing.B) { benchHeuristicLatency(b, heuristics.SpMonoL{}, 40, 10) }
func BenchmarkH6SpBiL(b *testing.B)   { benchHeuristicLatency(b, heuristics.SpBiL{}, 40, 10) }

// Scaling ablation: the plain splitter across platform sizes (the paper's
// p = 10 → 100 transition).
func BenchmarkH1Scaling(b *testing.B) {
	for _, p := range []int{10, 100} {
		for _, n := range []int{10, 40} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				benchHeuristicPeriod(b, heuristics.SpMonoP{}, n, p)
			})
		}
	}
}

// --- Exact solvers and ablations ---------------------------------------

func BenchmarkExactMinPeriod(b *testing.B) {
	ev := benchEvaluator(10, 8, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.MinPeriod(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactParetoFront(b *testing.B) {
	ev := benchEvaluator(8, 6, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.ParetoFront(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// fewClassEvaluator builds a platform beyond the legacy 14-processor
// ceiling whose speeds cycle through few distinct values — the structure
// the class-compressed DP is built for.
func fewClassEvaluator(n, p, classes int, seed int64) *pipesched.Evaluator {
	r := rand.New(rand.NewSource(seed))
	works := make([]float64, n)
	for i := range works {
		works[i] = float64(1 + r.Intn(20))
	}
	deltas := make([]float64, n+1)
	for i := range deltas {
		deltas[i] = float64(r.Intn(30))
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = float64(1 + i%classes)
	}
	app, err := pipesched.NewPipeline(works, deltas)
	if err != nil {
		panic(err)
	}
	plat, err := pipesched.NewPlatform(speeds, 10)
	if err != nil {
		panic(err)
	}
	return pipesched.NewEvaluator(app, plat)
}

// BenchmarkExactLargeFewClass times exact solves that the old bitmask DP
// rejected outright: 24 processors in 3 speed classes of 8 (9³ = 729
// compressed states versus an impossible 2^24).
func BenchmarkExactLargeFewClass(b *testing.B) {
	ev := fewClassEvaluator(10, 24, 3, 7)
	b.Run("MinPeriod", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.MinPeriod(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinPeriodUnderLatency", func(b *testing.B) {
		_, optLat := ev.OptimalLatency()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.MinPeriodUnderLatency(ev, optLat*1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactMinPeriodUnderLatencyFewClass times the min-period
// bisection on 6561 compressed states (32 processors in 4 speed classes
// of 8): at exactly the optimal latency, where nearly every probe is
// infeasible, and at 1.5× it.
func BenchmarkExactMinPeriodUnderLatencyFewClass(b *testing.B) {
	for _, n := range []int{10, 40} {
		ev := fewClassEvaluator(n, 32, 4, 7)
		_, optLat := ev.OptimalLatency()
		for _, factor := range []float64{1, 1.5} {
			b.Run(fmt.Sprintf("n=%d/lat=%gx", n, factor), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := exact.MinPeriodUnderLatency(ev, optLat*factor); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExactMinLatencyUnderPeriodRaced times the min-latency DP on
// p=10 paper instances (E1–E4, one each) at a period bound halfway
// between the period lower bound and the single-processor period: dense,
// as MinLatencyUnderPeriod fills it, and raced, cut at H1's latency as
// the portfolio race runs it. A raced
// solve may abandon with ErrNotBelow: H1 can report the optimal mapping
// with a running-sum latency an ulp below the DP's sum of the same terms.
func BenchmarkExactMinLatencyUnderPeriodRaced(b *testing.B) {
	type instance struct {
		ev    *mapping.Evaluator
		bound float64
		inc   *heuristics.Incumbent
	}
	for _, n := range []int{10, 40} {
		var insts []instance
		for fi, fam := range workload.Families() {
			ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: 10, Seed: int64(300 + fi)}).Evaluator()
			single, _ := ev.OptimalLatency()
			bound := (pipesched.PeriodLowerBound(ev) + ev.Period(single)) / 2
			inc := heuristics.NewIncumbent()
			if res, err := (heuristics.SpMonoP{}).MinimizeLatency(ev, bound); err == nil {
				inc.Offer(res.Metrics.Latency)
			}
			insts = append(insts, instance{ev, bound, inc})
		}
		for _, mode := range []string{"dense", "raced"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, x := range insts {
						var err error
						if mode == "dense" {
							_, err = exact.MinLatencyUnderPeriod(x.ev, x.bound)
						} else {
							_, err = exact.MinLatencyUnderPeriodWithin(x.ev, x.bound, x.inc)
						}
						if err != nil && !errors.Is(err, exact.ErrNotBelow) {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// Chains-to-chains ablation (DESIGN.md §6): exact DP vs bisection vs the
// recursive-bisection heuristic on the same homogeneous instance, and
// greedy vs exact on the heterogeneous one.
func chainArray(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(1 + r.Intn(20))
	}
	return a
}

func BenchmarkChainsHomogeneousDP(b *testing.B) {
	a := chainArray(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chains.HomogeneousDP(a, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainsHomogeneousBisect(b *testing.B) {
	a := chainArray(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chains.HomogeneousBisect(a, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainsRecursiveBisection(b *testing.B) {
	a := chainArray(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chains.RecursiveBisection(a, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainsHeterogeneousExact(b *testing.B) {
	a := chainArray(24, 2)
	speeds := chainArray(10, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chains.HeterogeneousExact(a, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainsHeterogeneousGreedy(b *testing.B) {
	a := chainArray(24, 2)
	speeds := chainArray(10, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chains.HeterogeneousGreedy(a, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Portfolio and batch engine -----------------------------------------

// BenchmarkSolveBatch contrasts the serial reference path with the
// concurrent pool on the same 64-instance batch; on multi-core the
// parallel variant should scale with GOMAXPROCS while producing the
// identical report.
func BenchmarkSolveBatch(b *testing.B) {
	instances := workload.GenerateSet(workload.E2, 20, 10, 64, 31000)
	base := pipesched.BatchOptions{Bound: 1.5, RelativeBound: true}
	for _, mode := range []struct {
		name   string
		serial bool
	}{
		{"serial", true},
		{"parallel", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := base
			opts.Serial = mode.serial
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := pipesched.SolveBatch(context.Background(), instances, opts)
				if err != nil {
					b.Fatal(err)
				}
				if report.Solved == 0 {
					b.Fatal("nothing solved")
				}
			}
		})
	}
}

// BenchmarkBatchGrouped times SolveBatch on the skewed shape real
// batches have: 64 pipelines against one shared platform object, as the
// service layer's decode-time platform dedup produces, so the batch
// builds the platform-derived evaluator tables once.
func BenchmarkBatchGrouped(b *testing.B) {
	instances := workload.GenerateSet(workload.E2, 20, 10, 64, 31000)
	for i := range instances {
		instances[i].Plat = instances[0].Plat
	}
	opts := pipesched.BatchOptions{Bound: 1.5, RelativeBound: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := pipesched.SolveBatch(context.Background(), instances, opts)
		if err != nil {
			b.Fatal(err)
		}
		if report.Solved == 0 {
			b.Fatal("nothing solved")
		}
	}
}

// BenchmarkPortfolioRace times one instance's portfolio race (heuristics
// + exact DP).
func BenchmarkPortfolioRace(b *testing.B) {
	ev := benchEvaluator(14, 10, 47)
	bound := pipesched.PeriodLowerBound(ev) * 1.5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, found, _ := portfolio.UnderPeriod(context.Background(), ev, bound, portfolio.SolveOptions{Exact: true})
		if !found {
			b.Fatal("infeasible bound")
		}
	}
}

// BenchmarkHeuristicSolve is the snapshot benchmark of one heuristic
// solve per H1–H6 on the shared mid-sized instance — the per-solver
// trajectory scripts/bench.sh records into BENCH_*.json. The p=100 rows
// time H2–H4 on the largest shape the service's bulk traffic sends, where
// trajectories run longest and the 3-Explo tables are widest.
func BenchmarkHeuristicSolve(b *testing.B) {
	for _, h := range pipesched.PeriodHeuristics() {
		b.Run(h.ID(), func(b *testing.B) { benchHeuristicPeriod(b, h, 40, 10) })
	}
	for _, h := range pipesched.LatencyHeuristics() {
		b.Run(h.ID(), func(b *testing.B) { benchHeuristicLatency(b, h, 40, 10) })
	}
	for _, h := range pipesched.PeriodHeuristics()[1:] {
		b.Run(h.ID()+"_p100", func(b *testing.B) { benchHeuristicPeriod(b, h, 40, 100) })
	}
}

// BenchmarkParetoSweep is the snapshot benchmark of the sweep core
// (internal/portfolio.ParetoSweep), serial versus pooled workers.
func BenchmarkParetoSweep(b *testing.B) {
	ev := benchEvaluator(30, 40, 53)
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if front := portfolio.ParetoSweep(context.Background(), ev, 10, mode.workers); len(front) == 0 {
					b.Fatal("empty frontier")
				}
			}
		})
	}
}

// BenchmarkHeuristicParetoSweep exercises the parallelised façade sweep on
// a paper-scale platform.
func BenchmarkHeuristicParetoSweep(b *testing.B) {
	ev := benchEvaluator(40, 100, 53)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := pipesched.HeuristicParetoSweep(ev, 10); len(front) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// --- Simulator and baselines --------------------------------------------

func BenchmarkSimulator(b *testing.B) {
	ev := benchEvaluator(20, 10, 9)
	res, err := pipesched.BestUnderPeriod(ev, pipesched.PeriodLowerBound(ev)*2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ev, res.Mapping, sim.Options{DataSets: 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneToOneMinPeriod(b *testing.B) {
	ev := benchEvaluator(10, 20, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onetoone.MinPeriod(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitFullyHet(b *testing.B) {
	ev := benchEvaluator(20, 10, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.MinAchievablePeriodFullyHet(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFullHetEvaluator derives a fully heterogeneous instance from the
// shared generator: same pipeline and speeds, deterministic per-link
// bandwidths in [1, 5).
func benchFullHetEvaluator(n, p int, seed int64) *pipesched.Evaluator {
	in := workload.Generate(workload.Config{Family: workload.E2, Stages: n, Processors: p, Seed: seed})
	r := rand.New(rand.NewSource(seed + 1))
	links := make([][]float64, p)
	for u := range links {
		links[u] = make([]float64, p)
	}
	for u := 0; u < p; u++ {
		for v := u + 1; v < p; v++ {
			bw := 1 + 4*r.Float64()
			links[u][v], links[v][u] = bw, bw
		}
	}
	plat, err := pipesched.NewFullyHeterogeneousPlatform(in.Plat.Speeds(), links)
	if err != nil {
		panic(err)
	}
	return pipesched.NewEvaluator(in.App, plat)
}

// BenchmarkFullHetPortfolioRace times the fully heterogeneous portfolio
// lane — F1 under a period bound, F5/F6 under a latency bound — the
// fullhet counterpart of BenchmarkPortfolioRace.
func BenchmarkFullHetPortfolioRace(b *testing.B) {
	ev := benchFullHetEvaluator(14, 10, 47)
	single := mapping.SingleProcessor(ev.Pipeline(), ev.Platform(), ev.Platform().Fastest())
	minPeriod, err := heuristics.MinAchievablePeriodFullyHet(ev)
	if err != nil {
		b.Fatal(err)
	}
	periodBound := minPeriod * 1.05
	latencyBound := ev.Latency(single) * 1.5
	b.Run("period", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, found, _ := portfolio.UnderPeriod(context.Background(), ev, periodBound, portfolio.SolveOptions{Exact: true})
			if !found {
				b.Fatal("infeasible bound")
			}
		}
	})
	b.Run("latency", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, found, _ := portfolio.UnderLatency(context.Background(), ev, latencyBound, portfolio.SolveOptions{Exact: true})
			if !found {
				b.Fatal("infeasible bound")
			}
		}
	})
}

func BenchmarkEvaluatorPeriod(b *testing.B) {
	ev := benchEvaluator(40, 10, 17)
	res, err := pipesched.BestUnderPeriod(ev, pipesched.PeriodLowerBound(ev)*2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Period(res.Mapping)
	}
}

func BenchmarkChainsHomogeneousNicol(b *testing.B) {
	a := chainArray(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chains.HomogeneousNicol(a, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the latency-constrained 3-Exploration extensions (X7/X8)
// against the paper's H5/H6 on the same instance.
func BenchmarkExploLatencyAblation(b *testing.B) {
	hs := append(heuristics.LatencyHeuristics(), heuristics.ExtensionLatencyHeuristics()...)
	for _, h := range hs {
		b.Run(h.ID(), func(b *testing.B) {
			benchHeuristicLatency(b, h, 40, 10)
		})
	}
}

func BenchmarkOneToOneHungarian(b *testing.B) {
	ev := benchEvaluator(12, 24, 19)
	_, met, err := onetoone.MinPeriod(ev)
	if err != nil {
		b.Fatal(err)
	}
	bound := met.Period * 1.3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onetoone.MinLatencyUnderPeriod(ev, bound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDealSplit(b *testing.B) {
	ev := benchEvaluator(20, 10, 23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Chase an unreachable period: exercises the full move loop.
		if _, err := deal.DealSplit(ev, 0); err == nil {
			b.Fatal("period 0 reached")
		}
	}
}

func BenchmarkDealSimulate(b *testing.B) {
	ev := benchEvaluator(10, 10, 29)
	res, err := deal.DealSplit(ev, pipesched.PeriodLowerBound(ev))
	var m *deal.Mapping
	if err == nil {
		m = res.Mapping
	} else if e, ok := err.(*deal.InfeasibleError); ok {
		m = e.Best.Mapping
	} else {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deal.Simulate(ev, m, 500); err != nil {
			b.Fatal(err)
		}
	}
}
