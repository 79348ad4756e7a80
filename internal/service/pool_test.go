package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesched/internal/workload"
)

// serveInProcess drives one request through s.ServeHTTP, with no socket,
// and returns the status and body. It is safe off the test goroutine.
func serveInProcess(s *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// The solver pool takes GOMAXPROCS workers when first used, so these
// tests assume that GOMAXPROCS has not changed since: run each -cpu value
// in a process of its own.

// TestMissBurstRunsOnThePool holds every solve of a 256-request burst of
// distinct-key misses: no more solves may run at once than the solver
// pool has workers, and once the burst is released the daemon holds no
// goroutine beyond the pool's.
func TestMissBurstRunsOnThePool(t *testing.T) {
	const burst = 256
	workers := int64(runtime.GOMAXPROCS(0))
	in := testInstance(t)
	// A first miss, on a server of its own, starts the pool, whose
	// workers then count in the baseline.
	if code, data := serveInProcess(New(Options{}), "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6})); code != http.StatusOK {
		t.Fatalf("warm-up solve: status %d: %s", code, data)
	}
	base := runtime.NumGoroutine()
	s := New(Options{})
	var inside, peak atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()
	s.solveHook = func() {
		n := inside.Add(1)
		for {
			if p := peak.Load(); n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		inside.Add(-1)
	}
	for i := range burst {
		body := solveBody(t, in, map[string]any{"bound": 1e6 + float64(i)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, data := serveInProcess(s, "/v1/solve", body); code != http.StatusOK {
				t.Errorf("solve %d: status %d: %s", i, code, data)
			}
		}()
	}
	waitFor(t, "every request to miss and the pool to fill", func() bool {
		n := inside.Load()
		return n > workers || s.CacheStats().Misses == burst && n == workers
	})
	free()
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("%d solves ran at once on a pool of %d workers", got, workers)
	}
	waitFor(t, "the goroutine count to return to its starting level", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestBatchAndSweepOnOneFreeWorker holds all solver-pool workers but one,
// then serves a batch and a fanned-out 40×100 sweep: both run on the free
// worker, with no idle worker to help them and without queueing, and
// answer exactly as an undisturbed server does.
func TestBatchAndSweepOnOneFreeWorker(t *testing.T) {
	hold := int64(runtime.GOMAXPROCS(0) - 1)
	wide := workload.Generate(workload.Config{Family: workload.E3, Stages: 40, Processors: 100, Seed: 5})
	requests := []struct {
		path string
		body []byte
	}{
		{"/v1/batch", bulkBatchBody(t, 40, 10, 6)},
		{"/v1/sweep", keyedBody(t, "/v1/sweep", wide, map[string]any{"points": 15})},
	}
	ref := New(Options{})
	want := make([][]byte, len(requests))
	for i, r := range requests {
		code, data := serveInProcess(ref, r.path, r.body)
		if code != http.StatusOK {
			t.Fatalf("reference %s: status %d: %s", r.path, code, data)
		}
		want[i] = data
	}

	s := New(Options{})
	var held atomic.Int64
	release := make(chan struct{})
	s.solveHook = func() {
		if held.Add(1) <= hold {
			<-release
		}
	}
	in := testInstance(t)
	var wg sync.WaitGroup
	for i := range hold {
		body := solveBody(t, in, map[string]any{"bound": 1e6 + float64(i)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveInProcess(s, "/v1/solve", body)
		}()
	}
	defer wg.Wait()
	defer close(release)
	waitFor(t, "all workers but one to be held", func() bool { return held.Load() == hold })
	for i, r := range requests {
		code, data := serveInProcess(s, r.path, r.body)
		if code != http.StatusOK {
			t.Fatalf("%s on the free worker: status %d: %s", r.path, code, data)
		}
		if !bytes.Equal(data, want[i]) {
			t.Fatalf("%s on the free worker answered differently:\n%s\nwant\n%s", r.path, data, want[i])
		}
	}
}
