package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/portfolio"
	"pipesched/internal/service"
	"pipesched/internal/workload"
)

// Request paths of the daemon's JSON API.
const (
	pathSolve = "/v1/solve"
	pathSweep = "/v1/sweep"
	pathBatch = "/v1/batch"
)

// sweepPoints is the period-bound grid of every /v1/sweep request (the
// daemon's default).
const sweepPoints = 15

// batchSize is the number of pipelines in every /v1/batch request.
const batchSize = 16

// instance is one generated paper instance. Its reference values are
// derived on first use, so a stream can be generated quickly and only
// the instances a run actually sends are analysed.
type instance struct {
	in    workload.Instance
	label string

	once   sync.Once
	lb     float64 // lowerbound.Period
	single float64 // period of the whole pipeline on the fastest processor
	optLat float64 // Lemma-1 optimal latency
	thr    float64 // H1's failure threshold: the smallest period it reaches
	exact  bool    // the daemon races the exact DP on this platform
}

func (x *instance) refs() *instance {
	x.once.Do(func() {
		in := x.in
		ev := mapping.NewEvaluator(in.App, in.Plat)
		x.lb = lowerbound.Period(ev)
		x.single = ev.Period(mapping.SingleProcessor(in.App, in.Plat, in.Plat.Fastest()))
		x.optLat = ev.OptimalLatencyValue()
		x.exact = exact.Eligible(in.Plat)
		x.thr, _ = heuristics.MinAchievablePeriod(ev, heuristics.PeriodHeuristics()[0])
	})
	return x
}

// shape is one cell of the paper's experiment grid.
type shape struct {
	fam  workload.Family
	n, p int
}

// paperShapes lists E1–E4 × n ∈ {5,10,20,40} × p ∈ {10,100}.
func paperShapes() []shape {
	var out []shape
	for _, f := range workload.Families() {
		for _, n := range workload.PaperStages() {
			for _, p := range workload.PaperProcessors() {
				out = append(out, shape{f, n, p})
			}
		}
	}
	return out
}

func newInstance(s shape, seed int64) *instance {
	in := workload.Generate(workload.Config{Family: s.fam, Stages: s.n, Processors: s.p, Seed: seed})
	return &instance{in: in, label: fmt.Sprintf("%s/n%d/p%d/s%d", s.fam, s.n, s.p, seed)}
}

// bound places a binding bound at fraction f ∈ (0,1) of the instance's
// trade-off range. Under min-period it is a latency bound of (1+f)
// times the Lemma-1 optimal latency, always feasible. Under min-latency
// it is a period bound below the single-processor period and above
// H1's failure threshold, so H1 meets it; with provable set and a
// DP-eligible platform the range starts at the period lower bound
// instead, so tight bounds may be infeasible, which the DP proves.
func (x *instance) bound(obj portfolio.Objective, f float64, provable bool) float64 {
	if obj == portfolio.MinimizePeriod {
		return x.refs().optLat * (1 + f)
	}
	base := x.periodBase(provable)
	return base + f*(x.single-base)
}

func (x *instance) periodBase(provable bool) float64 {
	if provable && x.refs().exact {
		return x.lb
	}
	return x.refs().thr
}

// bindingInstance draws an instance of shape s from seed, moving to the
// next seed while the period range is empty (H1 cannot improve on one
// processor), so that distinct fractions give distinct binding bounds.
func bindingInstance(s shape, seed int64, provable bool) *instance {
	for {
		x := newInstance(s, seed)
		if x.refs().single > x.periodBase(provable)*(1+relTol) {
			return x
		}
		seed++
	}
}

// request is one HTTP request of a workload together with what the
// oracle needs to check its answer.
type request struct {
	id    int    // position in the workload's stream
	key   int    // logical key: equal keys carry equal bodies
	path  string // pathSolve, pathSweep or pathBatch
	body  []byte
	insts []*instance
	obj   portfolio.Objective
	bound float64 // absolute (solve) or relative (batch) bound
}

func objectiveName(o portfolio.Objective) string {
	if o == portfolio.MinimizePeriod {
		return "min-period"
	}
	return "min-latency"
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func solveRequest(key int, x *instance, obj portfolio.Objective, bound float64) *request {
	body := mustJSON(service.SolveRequest{
		Pipeline:  x.in.App,
		Platform:  x.in.Plat,
		Objective: objectiveName(obj),
		Bound:     bound,
	})
	return &request{key: key, path: pathSolve, body: body, insts: []*instance{x}, obj: obj, bound: bound}
}

func sweepRequest(key int, x *instance) *request {
	body := mustJSON(service.SweepRequest{Pipeline: x.in.App, Platform: x.in.Plat, Points: sweepPoints})
	return &request{key: key, path: pathSweep, body: body, insts: []*instance{x}}
}

func batchRequest(key int, xs []*instance, obj portfolio.Objective, rel float64) *request {
	ins := make([]workload.Instance, len(xs))
	for i, x := range xs {
		ins[i] = x.in
	}
	body := mustJSON(service.BatchRequest{
		Instances:     ins,
		Objective:     objectiveName(obj),
		Bound:         rel,
		RelativeBound: true,
	})
	return &request{key: key, path: pathBatch, body: body, insts: xs, obj: obj, bound: rel}
}

// elementBound is the absolute bound the daemon resolves a relative
// batch bound to for element x, as portfolio.BatchOptions defines it.
func (r *request) elementBound(x *instance) float64 {
	if r.obj == portfolio.MinimizePeriod {
		return r.bound * x.refs().optLat
	}
	return r.bound * x.refs().lb
}

// cacheKey is the benchmark's own key for a request, used to replay a
// workload's key stream through the cache and routing layers.
func (r *request) cacheKey() [32]byte {
	return sha256.Sum256(append([]byte(r.path), r.body...))
}

// stream is a workload's request sequence: request i is at(i), for i
// below size.
type stream struct {
	size int
	at   func(i int) *request
	// universe holds every distinct key once, for set-up priming; nil
	// when every request is distinct.
	universe []*request
}

// keyedStream draws size requests from universe with Zipf-skewed
// repeats. The universe is laid out shape-major (key k has shape
// k mod shapes), and Zipf rank r maps to a key of shape r mod shapes,
// so every seed's hot set mixes the same shapes and only the instances
// differ; the rank's slot within the shape is rotated by a seeded
// offset.
func keyedStream(r *rand.Rand, universe []*request, shapes, size int, s float64) stream {
	per := len(universe) / shapes
	rot := r.Intn(per)
	z := rand.NewZipf(r, s, 1, uint64(len(universe)-1))
	seq := make([]int32, size)
	for i := range seq {
		rank := int(z.Uint64())
		sh := rank % shapes
		slot := (rank/shapes + sh + rot) % per
		seq[i] = int32(slot*shapes + sh)
	}
	return stream{
		size:     size,
		universe: universe,
		at: func(i int) *request {
			cp := *universe[seq[i]]
			cp.id = i
			return &cp
		},
	}
}

// keyedUniverse builds reps instances of every shape, each asked under
// both objectives at two feasible binding bounds, laid out shape-major:
// key k has shape k mod len(shapes).
func keyedUniverse(r *rand.Rand, shapes []shape, reps int) []*request {
	type slot struct {
		x   *instance
		obj portfolio.Objective
		f   float64
	}
	slots := make([][]slot, len(shapes))
	for i, s := range shapes {
		for range reps {
			x := bindingInstance(s, r.Int63(), false)
			for _, obj := range []portfolio.Objective{portfolio.MinimizeLatency, portfolio.MinimizePeriod} {
				for _, f := range []float64{0.3, 0.7} {
					slots[i] = append(slots[i], slot{x, obj, f})
				}
			}
		}
	}
	out := make([]*request, len(shapes)*len(slots[0]))
	parallel(len(out), runtime.NumCPU(), func(k int) {
		sl := slots[k%len(shapes)][k/len(shapes)]
		out[k] = solveRequest(k, sl.x, sl.obj, sl.x.bound(sl.obj, sl.f, false))
	})
	return out
}

// hotUniverse is every paper shape twice, 256 keys.
func hotUniverse(r *rand.Rand) []*request { return keyedUniverse(r, paperShapes(), 2) }

// fleetUniverse is the 100-processor shapes 64 times each: 4096 keys,
// four times one node's default cache. Their solves are heuristic races
// of at most a few milliseconds, so the cluster tier, not the solver,
// shapes the numbers.
func fleetUniverse(r *rand.Rand) []*request { return keyedUniverse(r, fleetShapes(), 64) }

func fleetShapes() []shape {
	var out []shape
	for _, s := range paperShapes() {
		if s.p == 100 {
			out = append(out, s)
		}
	}
	return out
}

// coldStream yields fresh instances, each asked at three bounds of its
// trade-off grid in turn, loosest first. Instance shapes and objectives
// rotate through a seeded shuffle of every (shape, objective) pair, so
// each stretch of 192 requests covers the whole grid once.
func coldStream(r *rand.Rand, size int) stream {
	type cell struct {
		s   shape
		obj portfolio.Objective
	}
	var cells []cell
	for _, s := range paperShapes() {
		cells = append(cells, cell{s, portfolio.MinimizeLatency}, cell{s, portfolio.MinimizePeriod})
	}
	fracs := []float64{0.8, 0.5, 0.2}
	order := make([]cell, (size+len(fracs)-1)/len(fracs))
	seeds := make([]int64, len(order))
	for k := range order {
		if k%len(cells) == 0 {
			r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		}
		order[k], seeds[k] = cells[k%len(cells)], r.Int63()
	}
	reqs := make([]*request, len(order)*len(fracs))
	parallel(len(order), runtime.NumCPU(), func(k int) {
		c := order[k]
		x := bindingInstance(c.s, seeds[k], true)
		for j, f := range fracs {
			id := k*len(fracs) + j
			reqs[id] = solveRequest(id, x, c.obj, x.bound(c.obj, f, true))
			reqs[id].id = id
		}
	})
	return stream{size: size, at: func(i int) *request { return reqs[i] }}
}

// bulkStream alternates a 15-point sweep of a fresh instance with a
// batch of 16 fresh pipelines sharing one platform, on the paper's
// larger shapes (n ∈ {20,40}), so each request carries milliseconds of
// solver work. Batches alternate objectives under a relative bound: a
// latency bound of 1.25–2× each pipeline's optimal latency, and a period
// bound just above the batch's largest H1 failure threshold (as a
// multiple of each pipeline's period lower bound); either way every
// element is feasible without a DP to prove it.
func bulkStream(r *rand.Rand, size int) stream {
	var shapes []shape
	for _, s := range paperShapes() {
		if s.n >= 20 {
			shapes = append(shapes, s)
		}
	}
	rels := []float64{1.25, 1.5, 2}
	base := r.Int63()
	reqs := make([]*request, size)
	parallel(size, runtime.NumCPU(), func(i int) {
		r := rand.New(rand.NewSource(base + int64(i)))
		s := shapes[r.Intn(len(shapes))]
		if i%2 == 0 {
			reqs[i] = sweepRequest(i, newInstance(s, r.Int63()))
			return
		}
		plat := workload.Generate(workload.Config{Family: s.fam, Stages: s.n, Processors: s.p, Seed: r.Int63()}).Plat
		xs := make([]*instance, batchSize)
		for j := range xs {
			xs[j] = newInstance(s, r.Int63())
			xs[j].in.Plat = plat
		}
		if (i/2)%2 == 0 {
			rel := 0.0
			for _, x := range xs {
				rel = max(rel, x.refs().thr/x.lb)
			}
			reqs[i] = batchRequest(i, xs, portfolio.MinimizeLatency, rel*1.05)
		} else {
			reqs[i] = batchRequest(i, xs, portfolio.MinimizePeriod, rels[(i/4)%len(rels)])
		}
	})
	for i, q := range reqs {
		q.id = i
	}
	return stream{size: size, at: func(i int) *request { return reqs[i] }}
}
