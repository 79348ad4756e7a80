package portfolio

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The pool takes GOMAXPROCS workers when first used, so these tests
// assume that GOMAXPROCS has not changed since: run each -cpu value in a
// process of its own.

// holdWorkers occupies n solver-pool workers with tasks that block until
// the returned release function is called. It returns once all n run.
func holdWorkers(t *testing.T, n int) (release func()) {
	t.Helper()
	started, stop := make(chan struct{}), make(chan struct{})
	for range n {
		Go(func() {
			started <- struct{}{}
			<-stop
		})
	}
	for range n {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			close(stop)
			t.Fatalf("only some of %d held tasks started", n)
		}
	}
	return func() { close(stop) }
}

// TestMapIndexedOnTheLastFreeWorker runs a MapIndexed inside a pool task
// while every other worker is busy: with no idle worker to help, the
// task runs every element itself and returns them in order.
func TestMapIndexedOnTheLastFreeWorker(t *testing.T) {
	release := holdWorkers(t, runtime.GOMAXPROCS(0)-1)
	defer release()
	in := make([]int, 200)
	for i := range in {
		in[i] = i
	}
	done := make(chan []int, 1)
	Go(func() {
		out, _ := MapIndexed(context.Background(), 0, in, func(_ context.Context, i, v int) int { return 10*i + v })
		done <- out
	})
	select {
	case out := <-done:
		for i, v := range out {
			if v != 11*i {
				t.Fatalf("out[%d] = %d, want %d", i, v, 11*i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MapIndexed on the last free worker never returned")
	}
}

// TestMapIdleWorkersHelp checks that Map runs elements at once when pool
// workers are idle: each of two elements waits for the other to start,
// which only a helper running one of them can satisfy. A worker counts
// as idle only once it waits for work, so the check is retried.
func TestMapIdleWorkersHelp(t *testing.T) {
	startPool()
	for attempt := 0; attempt < 100; attempt++ {
		var arrived atomic.Int32
		both, _ := Map(context.Background(), 2, []int{0, 1}, func(context.Context, int) bool {
			arrived.Add(1)
			for deadline := time.Now().Add(20 * time.Millisecond); arrived.Load() < 2; runtime.Gosched() {
				if time.Now().After(deadline) {
					return false
				}
			}
			return true
		})
		if both[0] && both[1] {
			return
		}
	}
	t.Fatal("no pool worker ever helped a two-element Map")
}

// TestMapStartsNoGoroutine runs 1,000 MapIndexed calls on a started pool
// and checks, inside every element, that no goroutine was added.
func TestMapStartsNoGoroutine(t *testing.T) {
	startPool()
	base := runtime.NumGoroutine()
	in := make([]int, 8)
	peak := base
	var mu sync.Mutex
	for range 1000 {
		if _, err := MapIndexed(context.Background(), 4, in, func(context.Context, int, int) int {
			n := runtime.NumGoroutine()
			mu.Lock()
			peak = max(peak, n)
			mu.Unlock()
			return n
		}); err != nil {
			t.Fatal(err)
		}
	}
	if peak > base {
		t.Fatalf("MapIndexed ran with %d goroutines, %d before the calls", peak, base)
	}
}
