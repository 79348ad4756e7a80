package pipesched_test

import (
	"context"
	"fmt"

	"pipesched"
)

// The pipeline of the package documentation: four stages on a small
// heterogeneous cluster.
func ExampleNewPipeline() {
	app, err := pipesched.NewPipeline(
		[]float64{120, 80, 250, 60},
		[]float64{10, 40, 40, 20, 10})
	if err != nil {
		panic(err)
	}
	fmt.Println(app.Stages(), "stages, total work", app.TotalWork())
	fmt.Println(app)
	// Output:
	// 4 stages, total work 510
	// [10] S1(120) [40] S2(80) [40] S3(250) [20] S4(60) [10]
}

func ExampleOptimalLatency() {
	app, _ := pipesched.NewPipeline(
		[]float64{120, 80, 250, 60},
		[]float64{10, 40, 40, 20, 10})
	plat, _ := pipesched.NewPlatform([]float64{20, 14, 8, 5}, 10)
	ev := pipesched.NewEvaluator(app, plat)
	m, lat := pipesched.OptimalLatency(ev)
	fmt.Printf("%v latency=%.1f\n", m, lat)
	// Output:
	// S1..S4→P1 latency=27.5
}

func ExampleBestUnderPeriod() {
	app, _ := pipesched.NewPipeline(
		[]float64{120, 80, 250, 60},
		[]float64{10, 40, 40, 20, 10})
	plat, _ := pipesched.NewPlatform([]float64{20, 14, 8, 5}, 10)
	ev := pipesched.NewEvaluator(app, plat)
	res, err := pipesched.BestUnderPeriod(ev, 20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%v\nperiod=%.2f latency=%.2f\n", res.Mapping, res.Metrics.Period, res.Metrics.Latency)
	// Output:
	// S1..S2→P2 | S3→P1 | S4→P3
	// period=19.29 latency=42.29
}

func ExampleSimulate() {
	app, _ := pipesched.NewPipeline(
		[]float64{120, 80, 250, 60},
		[]float64{10, 40, 40, 20, 10})
	plat, _ := pipesched.NewPlatform([]float64{20, 14, 8, 5}, 10)
	ev := pipesched.NewEvaluator(app, plat)
	res, _ := pipesched.BestUnderPeriod(ev, 20)
	rep, err := pipesched.Simulate(ev, res.Mapping, pipesched.SimulationOptions{DataSets: 100})
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured period %.2f, analytic %.2f\n", rep.SteadyStatePeriod, res.Metrics.Period)
	fmt.Printf("measured latency %.2f, analytic %.2f\n", rep.MaxLatency, res.Metrics.Latency)
	// Output:
	// measured period 19.29, analytic 19.29
	// measured latency 42.29, analytic 42.29
}

func ExampleExactParetoFront() {
	app, _ := pipesched.NewPipeline([]float64{4, 4}, []float64{0, 2, 0})
	plat, _ := pipesched.NewPlatform([]float64{2, 2}, 2)
	ev := pipesched.NewEvaluator(app, plat)
	front, err := pipesched.ExactParetoFront(ev)
	if err != nil {
		panic(err)
	}
	for _, pt := range front {
		fmt.Printf("period=%.0f latency=%.0f %v\n", pt.Metrics.Period, pt.Metrics.Latency, pt.Mapping)
	}
	// Output:
	// period=3 latency=5 S1→P1 | S2→P2
	// period=4 latency=4 S1..S2→P1
}

// A batch of random instances solved concurrently: each instance races
// H1–H4 plus the exact DP under 1.5× its own period lower bound, idle
// solver-pool workers help the caller with the instances, and the report
// aggregates the non-dominated (period, latency) frontier across the
// whole batch. Results are identical whatever the worker count.
func ExampleSolveBatch() {
	var batch []pipesched.WorkloadInstance
	for seed := int64(1); seed <= 16; seed++ {
		batch = append(batch, pipesched.GenerateWorkload(pipesched.WorkloadConfig{
			Family: pipesched.E2, Stages: 8, Processors: 6, Seed: seed,
		}))
	}
	report, err := pipesched.SolveBatch(context.Background(), batch, pipesched.BatchOptions{
		Objective:     pipesched.MinimizeLatency, // latency under a period bound
		Bound:         1.5,                       // × each instance's period lower bound
		RelativeBound: true,
		Exact:         true, // race the exact DP too (≤ 14 processors)
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("solved %d/%d instances\n", report.Solved, len(batch))
	for _, pt := range report.Front {
		fmt.Printf("instance %2d: period=%.2f latency=%.2f\n",
			pt.Instance, pt.Metrics.Period, pt.Metrics.Latency)
	}
	// Output:
	// solved 14/16 instances
	// instance 12: period=7.95 latency=13.35
	// instance  1: period=8.69 latency=11.12
}

func ExampleDealSplit() {
	// A single dominant stage: no interval mapping beats its own
	// cycle-time, but a deal skeleton replicates it.
	app, _ := pipesched.NewPipeline([]float64{12}, []float64{0, 0})
	plat, _ := pipesched.NewPlatform([]float64{2, 2, 2}, 1)
	ev := pipesched.NewEvaluator(app, plat)
	res, err := pipesched.DealSplit(ev, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%v period=%.0f latency=%.0f\n", res.Mapping, res.Metrics.Period, res.Metrics.Latency)
	// Output:
	// S1→deal{P1,P2,P3} period=2 latency=6
}
