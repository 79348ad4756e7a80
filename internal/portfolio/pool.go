// Package portfolio is the concurrent solving layer of the reproduction:
// it races the paper's solvers against each other on one instance
// (portfolio solving) and batch-solves slices of workload instances
// (batch solving), all on one process-wide solver pool.
//
// Everything here is pure orchestration. The heuristics and exact solvers
// stay deterministic and single-threaded; the portfolio only decides what
// runs where, then selects among finished runs with the exact tie-breaking
// rules of the original serial loops, so parallel results are bit-identical
// to serial ones.
package portfolio

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// The solver pool: GOMAXPROCS long-lived workers, started on first use,
// that bound how many solves run at once and keep the stacks the solvers
// grew. They run what Go queues, FIFO, and help Map when idle: a send on
// the unbuffered idle reaches only a worker idle at that moment. The
// queue holds a burst of misses, whose callers wait under their deadlines.
var (
	poolOnce    sync.Once
	queue, idle = make(chan func(), 1024), make(chan func())
)

func startPool() {
	poolOnce.Do(func() {
		for range runtime.GOMAXPROCS(0) {
			go func() {
				for {
					select {
					case task := <-queue:
						task()
					case task := <-idle:
						task()
					}
				}
			}()
		}
	})
}

// Go queues task on the solver pool, waiting while the queue is full.
// Tasks must not call Go: workers waiting on a full queue would serve none.
func Go(task func()) {
	startPool()
	queue <- task
}

// Map applies fn to every element of in, at most workers at once
// (workers < 1 selects runtime.GOMAXPROCS(0)), and returns the results in
// input order. It starts no goroutine: the caller runs elements itself,
// helped by pool workers idle at the call. Helpers never wait and Map
// never queues, so a Map running on a pool worker cannot deadlock.
//
// Map is context-aware: once ctx is cancelled no new element is started
// (elements already running finish — the solvers themselves are not
// interruptible) and Map returns ctx's error. Skipped elements keep the
// zero value of R, so callers distinguishing "ran" from "skipped" should
// make R a pointer type.
func Map[T, R any](ctx context.Context, workers int, in []T, fn func(context.Context, T) R) ([]R, error) {
	return MapIndexed(ctx, workers, in, func(ctx context.Context, _ int, v T) R {
		return fn(ctx, v)
	})
}

// MapIndexed is Map with the element's input position passed to fn, for
// callers whose work depends on position (SolveBatch's instance index).
func MapIndexed[T, R any](ctx context.Context, workers int, in []T, fn func(context.Context, int, T) R) ([]R, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]R, len(in))
	var next atomic.Int64
	run := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(in) {
				return
			}
			out[i] = fn(ctx, i, in[i])
		}
	}
	var helpers sync.WaitGroup
offer:
	for range min(workers, len(in)) - 1 {
		startPool()
		helpers.Add(1)
		select {
		case idle <- func() { defer helpers.Done(); run() }:
		default: // no worker is idle: the caller goes on alone
			helpers.Done()
			break offer
		}
	}
	run()
	helpers.Wait()
	return out, ctx.Err()
}
