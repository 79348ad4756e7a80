package service

// Allocation-regression caps for the serving hot path. The cache-hit
// serve is the high-QPS steady state — one body read, a single-scan
// decode into pooled wire scratch, pooled canonical hash, sharded-cache
// lookup, one Write. The naive pre-rework path measured 80 allocs per
// hit, the pooled path with encoding/json 16, and the single-scan reader
// 4: the body buffer, the MaxBytesReader, the reader and the
// Content-Length string. The caps leave a little headroom without
// letting the old per-request costs (fresh hashers, constructed
// platforms, a decoder per request) creep back in.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"pipesched/internal/workload"
)

// testWorkload is the shared instance of the alloc caps and the serving
// benchmarks.
func testWorkload() workload.Instance {
	return workload.Generate(workload.Config{Family: workload.E2, Stages: 10, Processors: 8, Seed: 31})
}

const (
	// serveHitAllocCap bounds allocations for one cache-hit /v1/solve.
	serveHitAllocCap = 8
	// decodeAllocCap bounds one warm decode of a batch body into reused
	// scratch: the numbers parse in place and the enum strings are
	// constants, so only the reader itself may reach the heap.
	decodeAllocCap = 1
	// errorRenderAllocCap bounds the pooled error-body render itself.
	errorRenderAllocCap = 4
)

func TestServeSolveHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	s := New(Options{})
	raw := benchmarkSolveBody(t)
	req := httptest.NewRequest("POST", "/v1/solve", nil)
	w, body := newBenchWriter(), &benchBody{}
	if st := serveOnce(s, w, req, body, raw); st != http.StatusOK { // prime the cache
		t.Fatalf("prime status %d", st)
	}
	run := func() {
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	}
	run() // warm the pools
	if got := testing.AllocsPerRun(200, run); got > serveHitAllocCap {
		t.Errorf("cache-hit solve: %.1f allocs/run, cap %d", got, serveHitAllocCap)
	}
}

func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	body := bulkBatchBody(t, 40, 100, 4)
	w := new(batchWire)
	run := func() {
		w.reset()
		if err := decodeWire(body, w); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the scratch
	if got := testing.AllocsPerRun(50, run); got > decodeAllocCap {
		t.Errorf("warm 16-instance batch decode: %.1f allocs/run, cap %d", got, decodeAllocCap)
	}
}

func TestWriteErrorBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	w := newBenchWriter()
	run := func() {
		w.reset()
		writeErrorBody(w, http.StatusBadRequest, `bound "x" is invalid <and> rejected`)
	}
	run()
	if got := testing.AllocsPerRun(200, run); got > errorRenderAllocCap {
		t.Errorf("error render: %.1f allocs/run, cap %d", got, errorRenderAllocCap)
	}
}

// benchmarkSolveBody adapts the benchmark body builder to tests.
func benchmarkSolveBody(tb testing.TB) []byte {
	tb.Helper()
	in := testWorkload()
	app, err := in.App.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	plat, err := in.Plat.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	body := append([]byte(`{"pipeline":`), app...)
	body = append(body, `,"platform":`...)
	body = append(body, plat...)
	body = append(body, `,"bound":1e6}`...)
	return body
}
