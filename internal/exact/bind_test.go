package exact

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
)

// divisionStates is bind's state loop before the mixed-radix counter: it
// reads each state's digits by a division and a modulo per class. It is
// the reference the counter's transition lists, usage counts and
// completion-bound tables are pinned against.
func divisionStates(plat *platform.Platform) (transOff []int32, transClass []int8, transPrev []int32, usage []int16, spare []float64, fastClass []int8) {
	classes := plat.SpeedClasses()
	csize, radix := make([]int, classes), make([]int, classes)
	states := 1
	for k := range csize {
		csize[k] = plat.ClassSize(k)
		radix[k] = states
		states *= csize[k] + 1
	}
	transOff = make([]int32, states+1)
	usage = make([]int16, states)
	spare = make([]float64, states)
	fastClass = make([]int8, states)
	for S := 0; S < states; S++ {
		transOff[S] = int32(len(transClass))
		sp, fast := 0.0, classes
		for k := 0; k < classes; k++ {
			used := (S / radix[k]) % (csize[k] + 1)
			if used > 0 {
				transClass = append(transClass, int8(k))
				transPrev = append(transPrev, int32(S-radix[k]))
			}
			if free := csize[k] - used; free > 0 {
				sp += float64(free) * plat.ClassSpeed(k)
				fast = min(fast, k)
			}
		}
		spare[S], fastClass[S] = sp, int8(fast)
		if S > 0 {
			usage[S] = usage[transPrev[len(transPrev)-1]] + 1
		}
	}
	transOff[states] = int32(len(transClass))
	return transOff, transClass, transPrev, usage, spare, fastClass
}

// classPlatform builds a platform whose class k has sizes[k] processors;
// the speeds are random and distinct across classes, so spare sums
// round differently in different orders.
func classPlatform(r *rand.Rand, sizes []int) *platform.Platform {
	var speeds []float64
	for k, c := range sizes {
		s := float64(k+1) + r.Float64()*0.9
		for i := 0; i < c; i++ {
			speeds = append(speeds, s)
		}
	}
	return platform.MustNew(speeds, 10)
}

// TestBindMatchesDivisionLoop pins the mixed-radix counter against the
// division loop on random class-size vectors, on 16 singleton classes
// (2^16 states, the MaxStates edge) and on one class of 100: the same
// transition lists, usage counts and fastest spare classes, and spare
// speeds equal bit for bit.
func TestBindMatchesDivisionLoop(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(41))
	var shapes [][]int
	for i := 0; i < 40; i++ {
		sizes := make([]int, 1+r.Intn(6))
		for k := range sizes {
			sizes[k] = 1 + r.Intn(5)
		}
		shapes = append(shapes, sizes)
	}
	singletons := make([]int, 16)
	for k := range singletons {
		singletons[k] = 1
	}
	shapes = append(shapes, singletons, []int{100})
	for _, sizes := range shapes {
		plat := classPlatform(r, sizes)
		if plat.ClassStateSpace() > MaxStates {
			continue
		}
		ev := mapping.NewEvaluator(pipeline.MustNew([]float64{3, 1, 4}, []float64{1, 0, 2, 1}), plat)
		a := acquireArena(ev)
		transOff, transClass, transPrev, usage, spare, fastClass := divisionStates(plat)
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"transOff", a.transOff, transOff},
			{"transClass", a.transClass, transClass},
			{"transPrev", a.transPrev, transPrev},
			{"usage", a.usage, usage},
			{"fastClass", a.fastClass, fastClass},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("classes %v: %s differs from the division loop", sizes, c.name)
			}
		}
		if len(a.spare) != len(spare) {
			t.Fatalf("classes %v: %d spare entries, want %d", sizes, len(a.spare), len(spare))
		}
		for S := range spare {
			if math.Float64bits(a.spare[S]) != math.Float64bits(spare[S]) {
				t.Fatalf("classes %v state %d: spare %v, division loop %v", sizes, S, a.spare[S], spare[S])
			}
		}
		a.release()
	}

}

// TestCutRowSixteenLiveTransitions fills a 16-class platform, the
// MaxStates edge, whose last row has a live predecessor through every
// one of its 16 transitions, and pins the kernel against the dense
// oracle there: the arena's live-transition list, sized at bind to the
// class count, holds all 16.
func TestCutRowSixteenLiveTransitions(t *testing.T) {
	t.Parallel()
	// Sixteen stages of work in [5, 6) on speeds in [1, 1.5), under a
	// period bound that admits one stage per processor and no more: every
	// mapping uses all 16 processors, so no final cell lowers the cutoff
	// before the last row, and that row reaches a finite cell through all
	// 16 of its transitions. Work falls along the pipeline, so the optimum
	// closes on the slowest class, the last transition of the last row.
	works := make([]float64, 16)
	speeds := make([]float64, 16)
	for i := range works {
		works[i], speeds[i] = 6-float64(i+1)/16, 1+float64(i)/32
	}
	ev := mapping.NewEvaluator(pipeline.MustNew(works, make([]float64, 17)), platform.MustNew(speeds, 10))
	a := acquireArena(ev)
	defer a.release()
	bound := works[0] / speeds[0] * slack
	v, state, want, ok := a.denseLatencyFill(bound)
	if !ok || state != a.states-1 {
		t.Fatalf("16 classes: dense fill (%v, %d, %v), want a mapping on every processor", v, state, ok)
	}
	cv, cstate, cok := a.run(objMinLatency, bound, nil)
	if !cok || math.Float64bits(cv) != math.Float64bits(v) || cstate != state ||
		!reflect.DeepEqual(a.path(cstate), want) {
		t.Fatalf("16 classes: kernel (%v, %d, %v) != dense (%v, %d, %v)", cv, cstate, cok, v, state, ok)
	}
	for t0 := a.transOff[state]; t0 < a.transOff[state+1]; t0++ {
		if sp := a.spans[a.transPrev[t0]]; sp.first > sp.last {
			t.Fatalf("16 classes: predecessor %d of the last row has no finite cell", a.transPrev[t0])
		}
	}
	if got := a.transOff[state+1] - a.transOff[state]; got != 16 {
		t.Fatalf("16 classes: the last row has %d transitions, want 16", got)
	}
}
