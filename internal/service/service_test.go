package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/workload"
)

// testInstance is a small deterministic instance every endpoint test
// shares; bounds below are generous enough for all solvers.
func testInstance(t *testing.T) workload.Instance {
	t.Helper()
	return workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: 11})
}

func solveBody(t *testing.T, in workload.Instance, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{
		"pipeline": in.App,
		"platform": in.Plat,
	}
	for k, v := range extra {
		req[k] = v
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestSolveEndpointModes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	periodBound := 1e6 // loose: everything feasible

	for _, tc := range []struct {
		name  string
		extra map[string]any
	}{
		{"default-portfolio", map[string]any{"bound": periodBound}},
		{"best", map[string]any{"bound": periodBound, "mode": "best"}},
		{"exact", map[string]any{"bound": periodBound, "mode": "exact"}},
		{"single-heuristic", map[string]any{"bound": periodBound, "mode": "h2"}},
		{"latency-side", map[string]any{"bound": 1e6, "objective": "min-period", "mode": "portfolio"}},
		{"latency-heuristic", map[string]any{"bound": 1e6, "objective": "min-period", "mode": "H6"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, "/v1/solve", solveBody(t, in, tc.extra))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatalf("bad body %s: %v", body, err)
			}
			if sr.Solver == "" || sr.Period <= 0 || sr.Latency <= 0 || len(sr.Intervals) == 0 {
				t.Fatalf("incomplete response: %+v", sr)
			}
			// The mapping must reconstruct and re-evaluate to the
			// reported metrics: the wire form is lossless.
			ivs := make([]mapping.Interval, len(sr.Intervals))
			for i, iv := range sr.Intervals {
				ivs[i] = mapping.Interval{Start: iv.Start, End: iv.End, Proc: iv.Proc}
			}
			m, err := mapping.New(in.App, in.Plat, ivs)
			if err != nil {
				t.Fatalf("returned intervals invalid: %v", err)
			}
			ev := mapping.NewEvaluator(in.App, in.Plat)
			if got := ev.Period(m); got != sr.Period {
				t.Errorf("re-evaluated period %g != reported %g", got, sr.Period)
			}
		})
	}
}

func TestSolveHeuristicModeMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	ev := mapping.NewEvaluator(in.App, in.Plat)
	out, found, _ := portfolio.UnderPeriod(context.Background(), ev, 50, portfolio.SolveOptions{Exact: true})
	if !found {
		t.Skip("bound infeasible for this seed")
	}
	resp, body := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 50.0}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Solver != out.Solver || sr.Period != out.Result.Metrics.Period || sr.Latency != out.Result.Metrics.Latency {
		t.Errorf("served (%s, %g, %g) != direct portfolio (%s, %g, %g)",
			sr.Solver, sr.Period, sr.Latency, out.Solver, out.Result.Metrics.Period, out.Result.Metrics.Latency)
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	// E1 at p=100 draws 20 speed classes: a comm-homogeneous platform
	// whose compressed state space is beyond the DP's reach. That is a
	// bad request naming the limit, not an infeasible bound.
	wide := workload.Generate(workload.Config{Family: workload.E1, Stages: 10, Processors: 100, Seed: 3})
	if exact.Eligible(wide.Plat) {
		t.Fatalf("test platform has %d states, within the DP's limit", wide.Plat.ClassStateSpace())
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
		msg  string // substring the error must contain, if set
	}{
		{"not-json", []byte("{nope"), http.StatusBadRequest, ""},
		{"unknown-field", solveBody(t, in, map[string]any{"bound": 1.0, "bogus": true}), http.StatusBadRequest, ""},
		{"missing-platform", []byte(`{"pipeline":{"works":[1],"deltas":[0,0]},"bound":1}`), http.StatusBadRequest, ""},
		{"zero-bound", solveBody(t, in, map[string]any{"bound": 0.0}), http.StatusBadRequest, ""},
		{"bad-objective", solveBody(t, in, map[string]any{"bound": 1.0, "objective": "min-energy"}), http.StatusBadRequest, ""},
		{"bad-mode", solveBody(t, in, map[string]any{"bound": 1.0, "mode": "H9"}), http.StatusBadRequest, ""},
		{"wrong-side-heuristic", solveBody(t, in, map[string]any{"bound": 1.0, "objective": "min-period", "mode": "H1"}), http.StatusBadRequest, ""},
		{"invalid-pipeline", []byte(`{"pipeline":{"works":[-1],"deltas":[0,0]},"platform":{"speeds":[1],"bandwidth":1},"bound":1}`), http.StatusBadRequest, ""},
		{"infeasible", solveBody(t, in, map[string]any{"bound": 1e-9, "mode": "best"}), http.StatusUnprocessableEntity, ""},
		{"exact-beyond-state-limit", solveBody(t, wide, map[string]any{"bound": wide.Evaluator().OptimalLatencyValue() * 1.5, "objective": "min-period", "mode": "exact"}),
			http.StatusBadRequest, strconv.Itoa(exact.MaxStates)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, "/v1/solve", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %s not an error object (%v)", body, err)
			}
			if !strings.Contains(er.Error, tc.msg) {
				t.Fatalf("error %q does not contain %q", er.Error, tc.msg)
			}
		})
	}
}

// fullHetTestInstance is a small fully heterogeneous instance the fullhet
// endpoint tests share: three processors behind deliberately unequal
// links, so the free processor choice matters.
func fullHetTestInstance(t *testing.T) (*pipeline.Pipeline, *platform.Platform) {
	t.Helper()
	app := pipeline.MustNew([]float64{4, 2, 6, 1}, []float64{1, 3, 2, 5, 1})
	links := [][]float64{
		{0, 2, 9},
		{2, 0, 4},
		{9, 4, 0},
	}
	plat, err := platform.NewFullyHeterogeneous([]float64{3, 1, 2}, links)
	if err != nil {
		t.Fatal(err)
	}
	return app, plat
}

func fullHetBody(t *testing.T, app *pipeline.Pipeline, plat *platform.Platform, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{"pipeline": app, "platform": plat}
	for k, v := range extra {
		req[k] = v
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFullyHeterogeneousSolveServed pins the fullhet serving lane end to
// end: a fully heterogeneous /v1/solve comes back 200 with X-Cache miss,
// the winning solver is the fullhet portfolio's F1, the returned mapping
// is bit-identical to the serial SplitFullyHet reference, and the
// repeated request is a cache hit with the identical body.
func TestFullyHeterogeneousSolveServed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	app, plat := fullHetTestInstance(t)
	const bound = 1000.0
	body := fullHetBody(t, app, plat, map[string]any{"bound": bound})

	resp, data := post(t, ts, "/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("X-Cache %q, want miss", xc)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("bad body %s: %v", data, err)
	}
	ref, err := heuristics.SplitFullyHet(mapping.NewEvaluator(app, plat), bound)
	if err != nil {
		t.Fatalf("serial reference infeasible: %v", err)
	}
	if sr.Solver != "F1" {
		t.Errorf("solver %q, want F1", sr.Solver)
	}
	if sr.Period != ref.Metrics.Period || sr.Latency != ref.Metrics.Latency {
		t.Errorf("served metrics (%g, %g) != serial SplitFullyHet (%g, %g)",
			sr.Period, sr.Latency, ref.Metrics.Period, ref.Metrics.Latency)
	}
	refIvs := ref.Mapping.Intervals()
	if len(sr.Intervals) != len(refIvs) {
		t.Fatalf("served %d intervals, reference %d", len(sr.Intervals), len(refIvs))
	}
	for i, iv := range sr.Intervals {
		if iv.Start != refIvs[i].Start || iv.End != refIvs[i].End || iv.Proc != refIvs[i].Proc {
			t.Errorf("interval %d: served %+v != reference %+v", i, iv, refIvs[i])
		}
	}

	resp2, data2 := post(t, ts, "/v1/solve", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want 200 hit", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data, data2) {
		t.Error("cache hit body differs from the miss body")
	}
}

// TestFullyHeterogeneousLatencySideServed covers the min-period side of
// the fullhet lane (F5/F6 race) plus explicit F-heuristic modes.
func TestFullyHeterogeneousLatencySideServed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	app, plat := fullHetTestInstance(t)
	ev := mapping.NewEvaluator(app, plat)
	single := mapping.SingleProcessor(app, plat, plat.Fastest())
	latBound := ev.Latency(single) * 2

	out, found, _ := portfolio.UnderLatency(context.Background(), ev, latBound, portfolio.SolveOptions{Exact: true})
	if !found {
		t.Fatal("fullhet portfolio found no solution under a loose latency bound")
	}
	resp, data := post(t, ts, "/v1/solve", fullHetBody(t, app, plat,
		map[string]any{"bound": latBound, "objective": "min-period"}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Solver != out.Solver || sr.Period != out.Result.Metrics.Period || sr.Latency != out.Result.Metrics.Latency {
		t.Errorf("served (%s, %g, %g) != serial portfolio (%s, %g, %g)",
			sr.Solver, sr.Period, sr.Latency, out.Solver, out.Result.Metrics.Period, out.Result.Metrics.Latency)
	}

	for _, mode := range []string{"F5", "f6"} {
		resp, data := post(t, ts, "/v1/solve", fullHetBody(t, app, plat,
			map[string]any{"bound": latBound, "objective": "min-period", "mode": mode}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status %d: %s", mode, resp.StatusCode, data)
		}
	}
}

// TestFullyHeterogeneousSweepAndBatchServed drives the remaining two
// endpoints: a fullhet sweep returns the frontier ParetoSweep computes
// directly, and a mixed batch solves its fullhet instance through F1
// while the comm-homogeneous one keeps its H/DP lane.
func TestFullyHeterogeneousSweepAndBatchServed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	app, plat := fullHetTestInstance(t)

	resp, data := post(t, ts, "/v1/sweep", fullHetBody(t, app, plat, map[string]any{"points": 8}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	var sw SweepResponse
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatal(err)
	}
	front := portfolio.ParetoSweep(context.Background(), mapping.NewEvaluator(app, plat), 8, 0)
	if len(sw.Points) != len(front) || len(front) == 0 {
		t.Fatalf("served %d sweep points, direct ParetoSweep %d", len(sw.Points), len(front))
	}
	for i, pt := range sw.Points {
		if pt.Period != front[i].Metrics.Period || pt.Latency != front[i].Metrics.Latency {
			t.Errorf("sweep point %d: served (%g, %g) != direct (%g, %g)",
				i, pt.Period, pt.Latency, front[i].Metrics.Period, front[i].Metrics.Latency)
		}
	}

	hom := testInstance(t)
	batch := map[string]any{
		"instances": []map[string]any{
			{"pipeline": app, "platform": plat},
			{"pipeline": hom.App, "platform": hom.Plat},
		},
		"bound": 1000.0,
	}
	bb, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, data = post(t, ts, "/v1/batch", bb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Solved != 2 || br.Failed != 0 {
		t.Fatalf("batch solved/failed %d/%d: %s", br.Solved, br.Failed, data)
	}
	if br.Results[0].Solver != "F1" {
		t.Errorf("fullhet batch instance won by %q, want F1", br.Results[0].Solver)
	}
	if got := br.Results[1].Solver; got == "" || got[0] == 'F' {
		t.Errorf("comm-homogeneous batch instance won by %q, want an H/DP solver", got)
	}
}

func TestSweepPointsCapped(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	resp, body := post(t, ts, "/v1/sweep", solveBody(t, in, map[string]any{"points": 2000000000}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestLeaderTimeoutDoesNotPoisonCache pins the detached-solve contract at
// the HTTP level: a leader whose deadline fires gets its 504, but the
// solve completes and later identical requests are served from cache.
func TestLeaderTimeoutDoesNotPoisonCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	in := testInstance(t)
	release := make(chan struct{})
	s.solveHook = func() { <-release }

	resp, data := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6, "timeout_ms": 1}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("impatient leader got %d, want 504: %s", resp.StatusCode, data)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for s.CacheStats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned solve never cached its result")
		}
		time.Sleep(time.Millisecond)
	}
	s.solveHook = nil
	// The exact same request body — timeout included — now hits.
	resp2, data2 := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6, "timeout_ms": 1}))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up got %d, want 200: %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("follow-up X-Cache %q, want hit", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := get(t, ts, "/v1/solve")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

func TestRepeatedRequestIsCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	in := testInstance(t)
	body := solveBody(t, in, map[string]any{"bound": 1e6})

	resp1, data1 := post(t, ts, "/v1/solve", body)
	resp2, data2 := post(t, ts, "/v1/solve", body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Errorf("cached body differs:\n%s\n%s", data1, data2)
	}
	cs := s.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 hit and 1 miss", cs)
	}

	// A semantically different request must not hit.
	resp3, _ := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 2e6}))
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different bound served from cache (X-Cache = %q)", got)
	}
	// The /metrics endpoint reports the same counters.
	_, mbody := get(t, ts, "/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatalf("bad /metrics body %s: %v", mbody, err)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 2 {
		t.Fatalf("/metrics cache = %+v, want 1 hit, 2 misses", snap.Cache)
	}
	if snap.Endpoints["solve"].Requests != 3 {
		t.Fatalf("/metrics endpoints = %+v, want 3 solve requests", snap.Endpoints)
	}
	// The solver section reports the intern table: one build for the
	// instance, one re-lease by the second miss (the DP counters are
	// process-global, so only the per-server intern is asserted here).
	if snap.Solver.InternMisses != 1 || snap.Solver.InternHits != 1 {
		t.Fatalf("/metrics solver = %+v, want 1 intern miss and 1 hit", snap.Solver)
	}
}

// TestConcurrentIdenticalRequestsCollapse fires N identical solves while
// the singleflight leader is held inside the solver, then asserts exactly
// one underlying solve ran and every response carries the same body.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	const n = 6
	s, ts := newTestServer(t, Options{})
	in := testInstance(t)
	body := solveBody(t, in, map[string]any{"bound": 1e6})

	release := make(chan struct{})
	s.solveHook = func() { <-release }

	type reply struct {
		status int
		cache  string
		body   string
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts, "/v1/solve", body)
			replies[i] = reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: string(data)}
		}(i)
	}
	// Wait until one leader is inside the solver and the other n-1
	// requests are parked on its flight, then release.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cs := s.CacheStats()
		if cs.Misses == 1 && cs.Collapsed == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never collapsed: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	cs := s.CacheStats()
	if cs.Misses != 1 {
		t.Fatalf("%d underlying solves for %d concurrent identical requests, want 1 (stats %+v)", cs.Misses, n, cs)
	}
	misses, collapsed := 0, 0
	for i, rp := range replies {
		if rp.status != http.StatusOK {
			t.Fatalf("request %d status %d: %s", i, rp.status, rp.body)
		}
		if rp.body != replies[0].body {
			t.Fatalf("request %d body differs", i)
		}
		switch rp.cache {
		case "miss":
			misses++
		case "collapsed":
			collapsed++
		}
	}
	if misses != 1 || collapsed != n-1 {
		t.Fatalf("dispositions: %d miss, %d collapsed; want 1 and %d", misses, collapsed, n-1)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	instances := make([]workload.Instance, 5)
	for i := range instances {
		instances[i] = workload.Generate(workload.Config{Family: workload.E2, Stages: 5, Processors: 4, Seed: int64(100 + i)})
	}
	req := map[string]any{
		"instances":      instances,
		"bound":          1.5,
		"relative_bound": true,
		"exact":          true,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts, "/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(instances) {
		t.Fatalf("%d results for %d instances", len(br.Results), len(instances))
	}
	if br.Solved+br.Failed != len(instances) {
		t.Fatalf("solved %d + failed %d != %d", br.Solved, br.Failed, len(instances))
	}
	// Cross-check against the engine directly: the service is a thin
	// wire layer and must not change outcomes.
	report, err := portfolio.SolveBatch(context.Background(), instances, portfolio.BatchOptions{
		Bound: 1.5, RelativeBound: true, Exact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Solved != br.Solved || report.Failed != br.Failed {
		t.Fatalf("served %d/%d, engine %d/%d", br.Solved, br.Failed, report.Solved, report.Failed)
	}
	if len(br.Front) != len(report.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(br.Front), len(report.Front))
	}

	// Identical batch → cache hit.
	resp2, _ := post(t, ts, "/v1/batch", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat batch X-Cache = %q, want hit", got)
	}
	if cs := s.CacheStats(); cs.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 hit", cs)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"no-instances", `{"instances":[],"bound":1}`, http.StatusBadRequest},
		{"bad-bound", `{"instances":[{"pipeline":{"works":[1],"deltas":[0,0]},"platform":{"speeds":[1],"bandwidth":1}}],"bound":-1}`, http.StatusBadRequest},
		{"bad-instance", `{"instances":[{"pipeline":null,"platform":null}],"bound":1}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, "/v1/batch", []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	body := solveBody(t, in, map[string]any{"points": 8})
	resp, data := post(t, ts, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SweepResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) == 0 {
		t.Fatal("empty frontier")
	}
	// The frontier must match the façade sweep and be non-dominated by
	// construction: strictly increasing period, strictly decreasing
	// latency.
	ev := mapping.NewEvaluator(in.App, in.Plat)
	direct := portfolio.ParetoSweep(context.Background(), ev, 8, 0)
	if len(direct) != len(sr.Points) {
		t.Fatalf("served %d points, direct sweep %d", len(sr.Points), len(direct))
	}
	for i := 1; i < len(sr.Points); i++ {
		if sr.Points[i].Period <= sr.Points[i-1].Period || sr.Points[i].Latency >= sr.Points[i-1].Latency {
			t.Fatalf("frontier not strictly ordered at %d: %+v", i, sr.Points)
		}
	}
	// Repeat → hit.
	resp2, _ := post(t, ts, "/v1/sweep", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat sweep X-Cache = %q, want hit", got)
	}
}

func TestSolveTimeoutReturns504(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	in := testInstance(t)
	// Hold the solve long enough for the 1ms deadline to fire. The
	// collapsed waiter path returns the context error; the leader's
	// eventual result simply lands in the cache unobserved.
	release := make(chan struct{})
	defer close(release)
	s.solveHook = func() { <-release }
	body := solveBody(t, in, map[string]any{"bound": 1e6, "timeout_ms": 1})
	// First request becomes the leader; it blocks in the hook, but its
	// own Do call is past the ctx check — so fire a second request that
	// collapses onto it and times out. The leader goroutine must not use
	// the test helpers (no t.Fatal off the test goroutine).
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.CacheStats().Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, data := post(t, ts, "/v1/solve", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %s (%v)", body, err)
	}
}

func TestCacheDisabledStillCollapses(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheEntries: -1})
	in := testInstance(t)
	body := solveBody(t, in, map[string]any{"bound": 1e6})
	post(t, ts, "/v1/solve", body)
	resp, _ := post(t, ts, "/v1/solve", body)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("storage disabled but X-Cache = %q", got)
	}
	if cs := s.CacheStats(); cs.Misses != 2 || cs.Entries != 0 {
		t.Fatalf("stats = %+v, want 2 misses, 0 entries", cs)
	}
}

func TestCanonicalKeysDistinguishRequests(t *testing.T) {
	in := testInstance(t)
	base := solveKey(portfolio.MinimizeLatency, "portfolio", 10, in.App, in.Plat)
	for name, k := range map[string]any{
		"objective": solveKey(portfolio.MinimizePeriod, "portfolio", 10, in.App, in.Plat),
		"mode":      solveKey(portfolio.MinimizeLatency, "best", 10, in.App, in.Plat),
		"bound":     solveKey(portfolio.MinimizeLatency, "portfolio", 11, in.App, in.Plat),
		"endpoint":  sweepKey(10, in.App, in.Plat),
	} {
		if fmt.Sprint(k) == fmt.Sprint(base) {
			t.Errorf("key ignores %s", name)
		}
	}
	// Same request, separately marshalled → same key.
	again := solveKey(portfolio.MinimizeLatency, "portfolio", 10, in.App, in.Plat)
	if base != again {
		t.Error("identical requests produced different keys")
	}
	// Different instances → different keys.
	other := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: 12})
	if solveKey(portfolio.MinimizeLatency, "portfolio", 10, other.App, other.Plat) == base {
		t.Error("distinct instances share a key")
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6}))
	post(t, ts, "/v1/solve", []byte("{bad")) // one error for the counter
	_, body := get(t, ts, "/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad metrics body: %v\n%s", err, body)
	}
	es, ok := snap.Endpoints["solve"]
	if !ok {
		t.Fatalf("no solve endpoint in %s", body)
	}
	if es.Requests != 2 || es.Errors != 1 {
		t.Fatalf("solve endpoint = %+v, want 2 requests, 1 error", es)
	}
	if es.MeanMS < 0 || es.MaxMS < es.MinMS {
		t.Fatalf("latency summary inconsistent: %+v", es)
	}
	if snap.UptimeSeconds <= 0 {
		t.Fatalf("uptime %g", snap.UptimeSeconds)
	}
	if !strings.Contains(string(body), "hit_rate") {
		t.Fatalf("no hit_rate in %s", body)
	}
}

// TestMetricsDPCounters pins the solver.dp counters /metrics exports: a
// "portfolio" solve on a DP-eligible p=10 instance advances serial_runs
// by every table fill it runs, feasibility probes included, while
// parallel_runs and memo_hits are present and read 0.
func TestMetricsDPCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := workload.Generate(workload.Config{Family: workload.E3, Stages: 20, Processors: 10, Seed: 1})
	if !exact.Eligible(in.Plat) {
		t.Fatal("the instance must be DP-eligible")
	}
	ev := in.Evaluator()
	dp := func() map[string]float64 {
		_, body := get(t, ts, "/metrics")
		var snap struct {
			Solver struct {
				DP map[string]float64 `json:"dp"`
			} `json:"solver"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("bad metrics body: %v\n%s", err, body)
		}
		for _, k := range []string{"serial_runs", "parallel_runs", "memo_hits"} {
			if _, ok := snap.Solver.DP[k]; !ok {
				t.Fatalf("solver.dp has no %s: %s", k, body)
			}
		}
		if snap.Solver.DP["parallel_runs"] != 0 || snap.Solver.DP["memo_hits"] != 0 {
			t.Fatalf("parallel_runs and memo_hits must read 0: %s", body)
		}
		return snap.Solver.DP
	}
	single, _ := ev.OptimalLatency()
	for _, tc := range []struct {
		name    string
		extra   map[string]any
		minRuns float64
	}{
		// The raced min-latency DP member is one cut fill.
		{"min-latency", map[string]any{"bound": ev.Period(single) / 2, "mode": "portfolio"}, 1},
		// A min-period win by the DP takes at least one bisection probe
		// and the chosen candidate's fill.
		{"min-period", map[string]any{"bound": ev.OptimalLatencyValue() * 1.5, "objective": "min-period", "mode": "portfolio"}, 2},
	} {
		before := dp()["serial_runs"]
		resp, body := post(t, ts, "/v1/solve", solveBody(t, in, tc.extra))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Solver != portfolio.ExactID {
			t.Fatalf("%s: solver %q, want the DP to win", tc.name, sr.Solver)
		}
		if runs := dp()["serial_runs"] - before; runs < tc.minRuns {
			t.Fatalf("%s: serial_runs advanced by %g, want at least %g", tc.name, runs, tc.minRuns)
		}
	}
}
