// Package lowerbound computes polynomial lower bounds on the period and
// latency of any interval mapping. The experiment harness uses them to
// anchor sweep grids, and the tests use them to sandwich heuristic
// results (lower bound ≤ heuristic ≤ trivial upper bound).
package lowerbound

import (
	"pipesched/internal/chains"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// Period returns a valid lower bound on the period of every interval
// mapping of the evaluator's pipeline onto its platform. It is the
// maximum of four independently valid bounds:
//
//  1. total work over total platform speed (perfect load balance);
//  2. the heaviest single stage on the fastest processor;
//  3. the first interval's incompressible cycle terms: δ_0/b + w_1/s_max
//     plus the smallest possible outgoing communication;
//  4. the optimal homogeneous chains-to-chains bottleneck at speed s_max
//     (interval structure must be respected even ignoring communication).
//
// Bound 4 dominates 1 and 2 on most instances but all are kept: they are
// cheap, and each is individually exercised by the tests. Bound 4 is
// chains.HomogeneousDP's optimum bit for bit, found by a value-only search
// that allocates nothing (chainsBottleneck).
func Period(ev *mapping.Evaluator) float64 {
	app, plat := ev.Pipeline(), ev.Platform()
	if plat.Kind() != platform.CommHomogeneous {
		// Conservative fallback: communications can be free on some
		// links, so only the computation bounds apply.
		return computeOnlyBound(ev)
	}
	b := plat.Bandwidth()
	n := app.Stages()
	sMax := plat.MaxSpeed()

	lb := app.TotalWork() / plat.TotalSpeed()
	if v := app.MaxWork() / sMax; v > lb {
		lb = v
	}

	// First interval: contains stage 1, pays δ_0 in and some δ_e out.
	minOut := app.Delta(1)
	for k := 2; k <= n; k++ {
		if d := app.Delta(k); d < minOut {
			minOut = d
		}
	}
	if v := app.Delta(0)/b + app.Work(1)/sMax + minOut/b; v > lb {
		lb = v
	}
	// Last interval mirrors the first.
	minIn := app.Delta(0)
	for k := 1; k < n; k++ {
		if d := app.Delta(k); d < minIn {
			minIn = d
		}
	}
	if v := minIn/b + app.Work(n)/sMax + app.Delta(n)/b; v > lb {
		lb = v
	}

	// Chains relaxation: any interval mapping induces a partition into
	// at most p intervals; the heaviest one runs at speed ≤ s_max.
	if v := chainsBottleneck(app, plat.Processors()) / sMax; v > lb {
		lb = v
	}
	return lb
}

func computeOnlyBound(ev *mapping.Evaluator) float64 {
	app, plat := ev.Pipeline(), ev.Platform()
	lb := app.TotalWork() / plat.TotalSpeed()
	if v := app.MaxWork() / plat.MaxSpeed(); v > lb {
		lb = v
	}
	if v := chainsBottleneck(app, plat.Processors()) / plat.MaxSpeed(); v > lb {
		lb = v
	}
	return lb
}

// chainsBottleneck returns the optimal bottleneck of the stage works cut
// into at most p intervals. The prefix sums are the pipeline's own:
// IntervalWork(1, k) is its prefix[k] − 0, and the pipeline builds prefix
// with the same additions as chains' prefixSums(Works()), so the value
// is chains.HomogeneousDP's bit for bit. Up to 64 stages the sums stay on
// the stack.
func chainsBottleneck(app *pipeline.Pipeline, p int) float64 {
	var buf [65]float64
	pre := append(buf[:0], 0)
	for k := 1; k <= app.Stages(); k++ {
		pre = append(pre, app.IntervalWork(1, k))
	}
	return chains.HomogeneousBottleneck(pre, p)
}

// Latency returns the exact minimum latency (Lemma 1: the whole pipeline
// on the fastest processor); provided here for symmetry with Period so
// harness code can treat both criteria uniformly.
func Latency(ev *mapping.Evaluator) float64 {
	return ev.OptimalLatencyValue()
}
