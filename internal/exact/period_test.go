package exact

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/workload"
)

// densePeriodFill is the period recurrence as computeRow filled it with
// backpointers: every cell from the usage floor up, each candidate
// max(f[p][kk], cycle) in (transition, start) order with strict
// improvement, in value and backpointer tables of its own. It returns
// what run(objMinPeriod, 0, nil) must return bit for bit, with the
// winning path its backpointers record: MinPeriod's re-derived path is
// pinned against it.
func (a *arena) densePeriodFill() (best float64, bestState int, path []mapping.Interval, ok bool) {
	n, nn := a.n, a.n*a.n
	f, back := make([]float64, a.states*(n+1)), make([]oracleStep, a.states*(n+1))
	f[0] = 0
	for i := 1; i <= n; i++ {
		f[i] = inf
	}
	for S := 1; S < a.states; S++ {
		row := S * (n + 1)
		cS := int(a.usage[S])
		for i := 0; i <= n; i++ {
			f[row+i] = inf
			if i < cS {
				continue
			}
			bestV := inf
			var bestB oracleStep
			for t := a.transOff[S]; t < a.transOff[S+1]; t++ {
				k := int(a.transClass[t])
				prevRow := int(a.transPrev[t]) * (n + 1)
				for kk := cS - 1; kk < i; kk++ {
					fv := f[prevRow+kk]
					if fv == inf {
						continue
					}
					cand := fv
					if cy := a.cost[k*nn+(i-1)*n+kk].cyc; cy > cand {
						cand = cy
					}
					if cand < bestV {
						bestV, bestB = cand, oracleStep{kk, k}
					}
				}
			}
			f[row+i], back[row+i] = bestV, bestB
		}
	}
	return a.oracleWalk(f, back)
}

// samePeriodFill reports the first difference between MinPeriod and the
// backpointer oracle on ev: in the DP's value bits, its winning state,
// the re-derived path, or the returned mapping's intervals and metric
// bits.
func samePeriodFill(ev *mapping.Evaluator) error {
	a := acquireArena(ev)
	defer a.release()
	v, state, want, ok := a.densePeriodFill()
	cv, cstate, cok := a.run(objMinPeriod, 0, nil)
	switch {
	case cok != ok:
		return fmt.Errorf("fill ok %v, oracle %v", cok, ok)
	case !ok:
		return nil
	case math.Float64bits(cv) != math.Float64bits(v) || cstate != state:
		return fmt.Errorf("fill (%v, %d), oracle (%v, %d)", cv, cstate, v, state)
	case !reflect.DeepEqual(a.path(cstate), want):
		return fmt.Errorf("path %v, oracle %v", a.path(cstate), want)
	}
	ref, err := oracleResult(ev, want)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	if got, err := MinPeriod(ev); !sameOutcome(got, err, ref, nil) {
		return fmt.Errorf("MinPeriod (%+v, %v), oracle %+v %v", got.Metrics, err, ref.Metrics, want)
	}
	return nil
}

// TestMinPeriodMatchesBackpointerFill pins MinPeriod, whose fill keeps
// values only and whose path reconstruct re-derives, against the
// backpointer oracle: E1–E4 at n = 5, 10, 20 and 40 on p = 10, and
// tie-heavy few-class platforms (small integer works and speeds, so
// equal candidates abound). Every case must give the same value bits,
// winning state, intervals and metric bits.
func TestMinPeriodMatchesBackpointerFill(t *testing.T) {
	t.Parallel()
	for _, n := range []int{5, 10, 20, 40} {
		for fi, fam := range workload.Families() {
			ev := workload.Generate(workload.Config{Family: fam, Stages: n, Processors: 10, Seed: int64(3400 + 10*n + fi)}).Evaluator()
			if err := samePeriodFill(ev); err != nil {
				t.Errorf("%v n=%d: %v", fam, n, err)
			}
		}
	}
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 24; i++ {
		ev := fewClassEvaluator(r, 2+r.Intn(14), 2+r.Intn(11), 1+r.Intn(4))
		if err := samePeriodFill(ev); err != nil {
			t.Errorf("few-class %d: %v", i, err)
		}
	}
}

// TestReconstructCorruptedCell lowers the final cell of a winning path by
// one ulp after a period fill and after a latency fill. Every candidate of
// that cell is at least its true value, so none re-derives it, and result
// must report an error rather than panic or return a mapping; restored,
// the cell re-derives again.
func TestReconstructCorruptedCell(t *testing.T) {
	t.Parallel()
	ev := fewClassEvaluator(rand.New(rand.NewSource(5)), 10, 6, 2)
	a := acquireArena(ev)
	defer a.release()
	optLat := ev.OptimalLatencyValue()
	for _, fill := range []struct {
		name string
		run  func() (float64, int, bool)
	}{
		{"period", func() (float64, int, bool) { return a.run(objMinPeriod, 0, nil) }},
		{"latency", func() (float64, int, bool) { return a.run(objMinLatency, optLat, nil) }},
	} {
		v, state, ok := fill.run()
		if !ok {
			t.Fatalf("%s fill: no mapping", fill.name)
		}
		cell := &a.f[state*(a.n+1)+a.n]
		*cell = math.Nextafter(v, 0)
		if res, err := a.result(state); err == nil {
			t.Fatalf("%s fill: corrupted final cell of state %d re-derived %v", fill.name, state, res.Mapping.Intervals())
		}
		*cell = v
		if _, err := a.result(state); err != nil {
			t.Fatalf("%s fill: restored cell: %v", fill.name, err)
		}
	}
}
