package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/workload"
)

// TestWireKeysMatchObjectKeys pins the wire-level key functions to the
// object-level ones: the serving hot path computes keys from raw decoded
// slices, and those keys must be byte-identical to hashing the
// constructed pipeline/platform — otherwise a request could miss its own
// earlier result.
func TestWireKeysMatchObjectKeys(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E2, Stages: 7, Processors: 5, Seed: seed})
		works, deltas := in.App.Works(), in.App.Deltas()
		pw := &platformWire{Speeds: in.Plat.Speeds(), Bandwidth: in.Plat.Bandwidth()}
		for _, mode := range []string{"portfolio", "best", "H1"} {
			objKey := solveKey(portfolio.MinimizeLatency, mode, 12.5, in.App, in.Plat)
			wireKey := solveKeyWire(portfolio.MinimizeLatency, mode, 12.5, works, deltas, pw)
			if objKey != wireKey {
				t.Errorf("seed %d mode %s: wire solve key diverges from object key", seed, mode)
			}
		}
		if sweepKey(9, in.App, in.Plat) != sweepKeyWire(9, works, deltas, pw) {
			t.Errorf("seed %d: wire sweep key diverges from object key", seed)
		}
	}
}

// TestFullHetWireKeysMatchObjectKeys is the fully heterogeneous twin of
// TestWireKeysMatchObjectKeys, including the diagonal-normalisation rule:
// the constructor ignores diagonal link cells, so a request carrying
// garbage there must still hash to the constructed platform's key.
func TestFullHetWireKeysMatchObjectKeys(t *testing.T) {
	app := pipeline.MustNew([]float64{3, 1, 4, 1, 5}, []float64{2, 7, 1, 8, 2, 8})
	speeds := []float64{2, 3, 5}
	links := [][]float64{
		{0, 4, 9},
		{4, 0, 6},
		{9, 6, 0},
	}
	plat, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		t.Fatal(err)
	}
	dirtyDiag := [][]float64{
		{123, 4, 9},
		{4, -7, 6},
		{9, 6, math.NaN()},
	}
	for _, pw := range []*platformWire{
		{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: links},
		{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: dirtyDiag},
	} {
		for _, mode := range []string{"portfolio", "best", "F1"} {
			objKey := solveKey(portfolio.MinimizeLatency, mode, 12.5, app, plat)
			wireKey := solveKeyWire(portfolio.MinimizeLatency, mode, 12.5, app.Works(), app.Deltas(), pw)
			if objKey != wireKey {
				t.Errorf("mode %s: fullhet wire solve key diverges from object key", mode)
			}
		}
		if sweepKey(9, app, plat) != sweepKeyWire(9, app.Works(), app.Deltas(), pw) {
			t.Error("fullhet wire sweep key diverges from object key")
		}
	}
}

// TestCanonSeparatesLinkBandwidths is the cache-correctness regression
// the fullhet lane demands: two platforms identical except for a single
// link bandwidth must produce distinct canonical keys on both the object
// and the wire path, and the fullhet stream must never collide with a
// comm-homogeneous platform of the same speeds.
func TestCanonSeparatesLinkBandwidths(t *testing.T) {
	app := pipeline.MustNew([]float64{1, 2}, []float64{1, 1, 1})
	speeds := []float64{1, 2, 3}
	mkLinks := func(b01 float64) [][]float64 {
		return [][]float64{
			{0, b01, 5},
			{b01, 0, 7},
			{5, 7, 0},
		}
	}
	a, err := platform.NewFullyHeterogeneous(speeds, mkLinks(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.NewFullyHeterogeneous(speeds, mkLinks(3))
	if err != nil {
		t.Fatal(err)
	}
	if solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, a) ==
		solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, b) {
		t.Error("object keys collide across a changed link bandwidth")
	}
	wa := &platformWire{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: mkLinks(2)}
	wb := &platformWire{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: mkLinks(3)}
	if solveKeyWire(portfolio.MinimizeLatency, "portfolio", 10, app.Works(), app.Deltas(), wa) ==
		solveKeyWire(portfolio.MinimizeLatency, "portfolio", 10, app.Works(), app.Deltas(), wb) {
		t.Error("wire keys collide across a changed link bandwidth")
	}
	if sweepKeyWire(9, app.Works(), app.Deltas(), wa) == sweepKeyWire(9, app.Works(), app.Deltas(), wb) {
		t.Error("wire sweep keys collide across a changed link bandwidth")
	}
	hom, err := platform.New(speeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, a) ==
		solveKey(portfolio.MinimizeLatency, "portfolio", 10, app, hom) {
		t.Error("fullhet key collides with a comm-homogeneous platform of the same speeds")
	}
}

// errorResponse is the body of every non-2xx reply, in the encoder's
// form: the oracle writeErrorBody's hand-rendered bytes are held to.
type errorResponse struct {
	Error string `json:"error"`
}

// TestErrorJSONShape pins the hand-rendered error body byte-for-byte
// against encoding/json on a torture table: quotes, backslashes, HTML
// metacharacters, control bytes, multi-byte UTF-8, the JS line
// separators and invalid UTF-8 must all escape exactly as the encoder
// would, so clients observe no change from the pooled error path.
func TestErrorJSONShape(t *testing.T) {
	messages := []string{
		"plain message",
		`unknown platform kind "grid" (want "comm-homogeneous" or "fully-heterogeneous")`,
		"bound -1 is invalid (must be finite and > 0)",
		"tabs\tand\nnewlines\rand\\slashes",
		"html <script>&amp;</script> metacharacters",
		"control \x01\x02\x1f bytes",
		"unicode: périod λatency 周期",
		"js separators \u2028 and \u2029",
		"invalid utf-8: \xff\xfe tail",
		"",
	}
	for _, msg := range messages {
		want, err := json.Marshal(errorResponse{Error: msg})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		rec := httptest.NewRecorder()
		writeErrorBody(rec, http.StatusBadRequest, msg)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("message %q:\n got %q\nwant %q", msg, got, want)
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("message %q: status %d", msg, rec.Code)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("message %q: Content-Length %q, want %d", msg, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("message %q: Content-Type %q", msg, ct)
		}
	}
}

// TestErrorShapeEndToEnd drives real invalid requests through the HTTP
// stack and asserts every error body is exactly one {"error": ...}
// object with a trailing newline, decodable into errorResponse, on both
// the 4xx and the 5xx-mapped paths.
func TestErrorShapeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	for name, body := range map[string][]byte{
		"bad-json":      []byte("{nope"),
		"bad-bound":     solveBody(t, in, map[string]any{"bound": -3.5}),
		"bad-mode":      solveBody(t, in, map[string]any{"bound": 1.0, "mode": "H99"}),
		"infeasible":    solveBody(t, in, map[string]any{"bound": 1e-9, "mode": "best"}),
		"unknown-kind":  []byte(`{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"grid","speeds":[1,2],"bandwidth":1},"bound":10}`),
		"het-exact":     []byte(`{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1],[1,0]]},"bound":10,"mode":"exact"}`),
		"het-bad-links": []byte(`{"pipeline":{"works":[1,2],"deltas":[1,1,1]},"platform":{"kind":"fully-heterogeneous","speeds":[1,2],"links":[[0,1]]},"bound":10}`),
		"trailing-data": append(solveBody(t, in, map[string]any{"bound": 1.0}), []byte(" {}")...),
	} {
		t.Run(name, func(t *testing.T) {
			resp, data := post(t, ts, "/v1/solve", body)
			if resp.StatusCode < 400 {
				t.Fatalf("status %d, want an error", resp.StatusCode)
			}
			if !bytes.HasSuffix(data, []byte("}\n")) {
				t.Fatalf("error body %q does not end in }\\n", data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q not an error object (%v)", data, err)
			}
			// The body must be the canonical encoding of its own message.
			want, _ := json.Marshal(errorResponse{Error: er.Error})
			if !bytes.Equal(data, append(want, '\n')) {
				t.Fatalf("error body %q is not canonical (want %q)", data, append(want, '\n'))
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
		})
	}
}

// TestResponsesCarryContentLength pins the rendered-bytes contract: both
// hits and misses go out with an exact Content-Length (one write, no
// chunking) and a trailing newline.
func TestResponsesCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	body := solveBody(t, in, map[string]any{"bound": 1e6})
	for _, pass := range []string{"miss", "hit"} {
		resp, data := post(t, ts, "/v1/solve", body)
		if got := resp.Header.Get("X-Cache"); got != pass {
			t.Fatalf("X-Cache %q, want %q", got, pass)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(data)) {
			t.Fatalf("%s: Content-Length %q for %d body bytes", pass, cl, len(data))
		}
		if !bytes.HasSuffix(data, []byte("\n")) {
			t.Fatalf("%s: body missing trailing newline", pass)
		}
	}
}

// TestMetricsConservation pins the /metrics consistency law the sharded
// rebuild must preserve: over any quiesced run of valid cacheable
// requests, hits + collapsed + misses equals the requests that reached
// the cache, and the endpoint counters account for every HTTP request.
func TestMetricsConservation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	const uniques, repeats = 5, 3
	valid := 0
	for u := 0; u < uniques; u++ {
		body := solveBody(t, in, map[string]any{"bound": 1e6 + float64(u)})
		for rep := 0; rep < repeats; rep++ {
			resp, data := post(t, ts, "/v1/solve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			valid++
		}
	}
	// Two invalid requests: they hit the endpoint counters but never
	// reach the cache.
	post(t, ts, "/v1/solve", []byte("{bad"))
	post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": -1.0}))

	_, mbody := get(t, ts, "/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatalf("bad /metrics body: %v\n%s", err, mbody)
	}
	if got := snap.Cache.Hits + snap.Cache.Misses + snap.Cache.Collapsed; got != uint64(valid) {
		t.Errorf("hits+misses+collapsed = %d, want %d (the cacheable requests)", got, valid)
	}
	if snap.Cache.Misses != uniques || snap.Cache.Hits != uniques*(repeats-1) {
		t.Errorf("cache = %+v, want %d misses and %d hits", snap.Cache, uniques, uniques*(repeats-1))
	}
	es := snap.Endpoints["solve"]
	if es.Requests != uint64(valid+2) || es.Errors != 2 {
		t.Errorf("solve endpoint = %+v, want %d requests, 2 errors", es, valid+2)
	}
	if snap.Cache.Shards < 1 {
		t.Errorf("snapshot reports %d shards", snap.Cache.Shards)
	}
	if fmt.Sprint(snap.Cache.HitRate) == "NaN" || snap.Cache.HitRate <= 0 {
		t.Errorf("hit rate %v", snap.Cache.HitRate)
	}
}

// TestStrictTopLevelDecodeStillEnforced pins the strictness contract
// after the wire rework: unknown top-level fields and trailing data are
// rejected on every wire-decoded endpoint.
func TestStrictTopLevelDecodeStillEnforced(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(t)
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"solve-unknown", "/v1/solve", solveBody(t, in, map[string]any{"bound": 1.0, "bogus": 1})},
		{"sweep-unknown", "/v1/sweep", solveBody(t, in, map[string]any{"bogus": 1})},
		{"batch-unknown", "/v1/batch", []byte(`{"instances":[],"bound":1,"bogus":1}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), "bogus") && !strings.Contains(string(data), "instances") {
				t.Fatalf("error does not name the offending field: %s", data)
			}
		})
	}
}

// TestBatchWireKeyMatchesObjectKey pins batchKeyWire to batchKey: the
// batch hot path computes its cache key from the pooled wire scratch,
// and a primed batch must hit the entry that an object-keyed writer (or
// an older build) stored. Worker count must not fragment the key on
// either path.
func TestBatchWireKeyMatchesObjectKey(t *testing.T) {
	var instances []workload.Instance
	var wires []instanceWire
	for seed := int64(1); seed <= 4; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E2, Stages: 6, Processors: 4, Seed: seed})
		instances = append(instances, in)
		wires = append(wires, instanceWire{
			Pipeline: pipelineWire{Works: in.App.Works(), Deltas: in.App.Deltas()},
			Platform: platformWire{Speeds: in.Plat.Speeds(), Bandwidth: in.Plat.Bandwidth()},
		})
	}
	app := pipeline.MustNew([]float64{3, 1, 4}, []float64{2, 7, 1, 8})
	speeds := []float64{2, 3, 5}
	links := [][]float64{
		{0, 4, 9},
		{4, 0, 6},
		{9, 6, 0},
	}
	fullhet, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, workload.Instance{App: app, Plat: fullhet})
	wires = append(wires, instanceWire{
		Pipeline: pipelineWire{Works: app.Works(), Deltas: app.Deltas()},
		Platform: platformWire{Kind: platform.FullyHeterogeneous.String(), Speeds: speeds, Links: links},
	})
	for _, opts := range []portfolio.BatchOptions{
		{Objective: portfolio.MinimizeLatency, Bound: 1.5},
		{Objective: portfolio.MinimizePeriod, Bound: 2, RelativeBound: true, Exact: true},
	} {
		if batchKey(opts, instances) != batchKeyWire(opts, wires) {
			t.Errorf("opts %+v: wire batch key diverges from object key", opts)
		}
		alt := opts
		alt.Workers = 7
		if batchKeyWire(alt, wires) != batchKeyWire(opts, wires) {
			t.Errorf("opts %+v: worker count fragments the batch key", opts)
		}
	}
	// Distinct instance order must produce a distinct key: a batch is an
	// ordered request, results are positional.
	swapped := append([]instanceWire(nil), wires...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	opts := portfolio.BatchOptions{Bound: 1.5}
	if batchKeyWire(opts, swapped) == batchKeyWire(opts, wires) {
		t.Error("reordering instances kept the batch key")
	}
}

// TestBatchKeySharedPlatforms pins the samePlatform back-reference of
// batch keys. Instances that repeat the previous instance's platform key
// the same on the wire and object paths: by pointer on the object side,
// in fresh wire slices, under either spelling of the comm-homogeneous
// kind, and with different diagonal link cells. A platform that differs
// from the previous one in a speed, the bandwidth, a link or its kind
// changes the key, on both paths alike. buildBatchInstances gives each
// run of equal platforms one object.
func TestBatchKeySharedPlatforms(t *testing.T) {
	var apps []*pipeline.Pipeline
	for seed := int64(1); seed <= 4; seed++ {
		apps = append(apps, workload.Generate(workload.Config{Family: workload.E2, Stages: 6, Processors: 3, Seed: seed}).App)
	}
	hom := workload.Generate(workload.Config{Family: workload.E2, Stages: 6, Processors: 3, Seed: 9}).Plat
	links := [][]float64{{0, 4, 9}, {4, 0, 6}, {9, 6, 0}}
	fullhet, err := platform.NewFullyHeterogeneous(hom.Speeds(), links)
	if err != nil {
		t.Fatal(err)
	}
	// wire spells out plat afresh for instance i; kind "" is the default
	// comm-homogeneous spelling, and full-het diagonals read i. Every wire
	// also carries the field its kind ignores (hom's bandwidth, or the
	// links), so that only the kind tells hom and fullhet apart.
	wire := func(i int, plat *platform.Platform) instanceWire {
		app := apps[i%len(apps)]
		pw := platformWire{Speeds: append([]float64(nil), plat.Speeds()...), Bandwidth: hom.Bandwidth(), Links: links}
		switch {
		case plat.Kind() == platform.FullyHeterogeneous:
			pw.Kind = plat.Kind().String()
			pw.Links = nil
			for u := 1; u <= plat.Processors(); u++ {
				row := make([]float64, plat.Processors())
				for v := range row {
					if v+1 == u {
						row[v] = float64(i)
					} else {
						row[v] = plat.LinkBandwidth(u, v+1)
					}
				}
				pw.Links = append(pw.Links, row)
			}
		default:
			pw.Bandwidth = plat.Bandwidth()
			if i%2 == 1 {
				pw.Kind = plat.Kind().String()
			}
		}
		return instanceWire{Pipeline: pipelineWire{Works: app.Works(), Deltas: app.Deltas()}, Platform: pw}
	}
	opts := portfolio.BatchOptions{Bound: 1.5, RelativeBound: true}
	keys := func(plats ...*platform.Platform) (string, string) {
		instances := make([]workload.Instance, len(plats))
		wires := make([]instanceWire, len(plats))
		for i, plat := range plats {
			instances[i] = workload.Instance{App: apps[i%len(apps)], Plat: plat}
			wires[i] = wire(i, plat)
		}
		obj, wk := batchKey(opts, instances), batchKeyWire(opts, wires)
		return fmt.Sprint(obj), fmt.Sprint(wk)
	}
	otherSpeed, err := platform.New([]float64{hom.Speeds()[0], math.Nextafter(hom.Speeds()[1], 0), hom.Speeds()[2]}, hom.Bandwidth())
	if err != nil {
		t.Fatal(err)
	}
	otherBandwidth, err := platform.New(hom.Speeds(), 2*hom.Bandwidth())
	if err != nil {
		t.Fatal(err)
	}
	otherLink, err := platform.NewFullyHeterogeneous(hom.Speeds(), [][]float64{{0, 4, 9}, {4, 0, 5}, {9, 5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, tc := range []struct {
		name  string
		plats []*platform.Platform
	}{
		{"one-hom", []*platform.Platform{hom, hom, hom, hom}},
		{"one-fullhet", []*platform.Platform{fullhet, fullhet, fullhet}},
		{"interleaved", []*platform.Platform{hom, fullhet, hom, hom}},
		{"other-speed", []*platform.Platform{hom, otherSpeed, hom, hom}},
		{"other-bandwidth", []*platform.Platform{hom, otherBandwidth, hom, hom}},
		{"other-link", []*platform.Platform{fullhet, otherLink, fullhet}},
		{"other-kind", []*platform.Platform{hom, fullhet, fullhet, fullhet}},
	} {
		obj, wk := keys(tc.plats...)
		if obj != wk {
			t.Errorf("%s: wire batch key diverges from object key", tc.name)
		}
		if prev, dup := seen[wk]; dup {
			t.Errorf("%s: same key as %s", tc.name, prev)
		}
		seen[wk] = tc.name
	}

	wires := []instanceWire{wire(0, hom), wire(1, hom), wire(2, fullhet), wire(3, fullhet), wire(4, hom)}
	instances, err := buildBatchInstances(wires)
	if err != nil {
		t.Fatal(err)
	}
	if p := instances; p[0].Plat != p[1].Plat || p[2].Plat != p[3].Plat || p[1].Plat == p[2].Plat || p[3].Plat == p[4].Plat {
		t.Errorf("platform objects %p %p %p %p %p: want one per run of equal platforms", p[0].Plat, p[1].Plat, p[2].Plat, p[3].Plat, p[4].Plat)
	}
}

// TestNullElementDecodesAsOnFreshScratch pins the pooled request scratch
// to fresh-slice semantics: encoding/json leaves an array element decoded
// from null untouched, so it must read 0 whatever an earlier request left
// in the reused backing array. Each body is sent, then the same body with
// the null replaced by a number is sent 50 times, then the null body
// again: status and bytes must repeat, and the null must have been read
// as 0 (an invalid work, link or instance here, so 400).
func TestNullElementDecodesAsOnFreshScratch(t *testing.T) {
	app, plat := fullHetTestInstance(t)
	fullHet := string(fullHetBody(t, app, plat, map[string]any{"objective": "min-latency", "bound": 1000}))
	linksNull := strings.Replace(fullHet, "[0,2,9]", "[0,null,9]", 1)
	if linksNull == fullHet {
		t.Fatalf("links row not found in %s", fullHet)
	}
	const solveNull = `{"pipeline":{"works":[null,5,5],"deltas":[1,1,1,1]},"platform":{"kind":"comm-homogeneous","speeds":[2,1],"bandwidth":10},"objective":"min-latency","bound":100}`
	const batchNull = `{"instances":[{"pipeline":{"works":[null,5,5],"deltas":[1,1,1,1]},"platform":{"kind":"comm-homogeneous","speeds":[2,1],"bandwidth":10}}],"objective":"min-latency","bound":100}`
	for _, tc := range []struct {
		name, path, body, primed string
	}{
		{"solve-works", "/v1/solve", solveNull, strings.Replace(solveNull, "null", "7", 1)},
		{"solve-links", "/v1/solve", linksNull, fullHet},
		{"batch-works", "/v1/batch", batchNull, strings.Replace(batchNull, "null", "7", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
			first, firstBody := post(t, ts, tc.path, []byte(tc.body))
			if first.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (null read as 0): %s", first.StatusCode, firstBody)
			}
			for i := 0; i < 50; i++ {
				if resp, body := post(t, ts, tc.path, []byte(tc.primed)); resp.StatusCode != http.StatusOK {
					t.Fatalf("priming body: status %d: %s", resp.StatusCode, body)
				}
			}
			again, againBody := post(t, ts, tc.path, []byte(tc.body))
			if again.StatusCode != first.StatusCode || !bytes.Equal(againBody, firstBody) {
				t.Fatalf("after priming: status %d %s, first %d %s", again.StatusCode, againBody, first.StatusCode, firstBody)
			}
		})
	}
}
