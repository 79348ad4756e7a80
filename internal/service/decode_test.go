package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pipesched/internal/cluster"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// decodeOracle is the decode path the single-scan reader replaced: a
// strict json.Decoder, then a More check for trailing data. The reader
// must accept exactly the bodies it accepts and leave the wire structs
// as it leaves them.
func decodeOracle(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// wireBody is a top-level wire struct: what decodeWire fills and reset
// clears between requests.
type wireBody interface {
	wireObject
	reset()
}

// wireKinds builds each top-level wire body fresh.
var wireKinds = []struct {
	name  string
	fresh func() wireBody
}{
	{"solve", func() wireBody { return new(solveWire) }},
	{"sweep", func() wireBody { return new(sweepWire) }},
	{"batch", func() wireBody { return new(batchWire) }},
}

// describe renders every length, string, integer and float bit pattern
// of a wire body. Nil and empty slices read the same: the key, the
// validation and the constructors read only len.
func describe(v wireBody) string {
	var b strings.Builder
	floats := func(name string, s []float64) {
		fmt.Fprintf(&b, " %s[%d]", name, len(s))
		for _, f := range s {
			fmt.Fprintf(&b, " %x", math.Float64bits(f))
		}
	}
	pair := func(pw *pipelineWire, pl *platformWire) {
		floats("works", pw.Works)
		floats("deltas", pw.Deltas)
		fmt.Fprintf(&b, " kind=%q bandwidth=%x", pl.Kind, math.Float64bits(pl.Bandwidth))
		floats("speeds", pl.Speeds)
		fmt.Fprintf(&b, " links[%d]", len(pl.Links))
		for _, row := range pl.Links {
			floats("row", row)
		}
	}
	switch w := v.(type) {
	case *solveWire:
		pair(&w.Pipeline, &w.Platform)
		fmt.Fprintf(&b, " objective=%q bound=%x mode=%q timeout=%d", w.Objective, math.Float64bits(w.Bound), w.Mode, w.TimeoutMS)
	case *sweepWire:
		pair(&w.Pipeline, &w.Platform)
		fmt.Fprintf(&b, " points=%d timeout=%d", w.Points, w.TimeoutMS)
	case *batchWire:
		fmt.Fprintf(&b, "instances[%d]", len(w.Instances))
		for i := range w.Instances {
			pair(&w.Instances[i].Pipeline, &w.Instances[i].Platform)
		}
		fmt.Fprintf(&b, " objective=%q bound=%x relative=%t exact=%t workers=%d timeout=%d",
			w.Objective, math.Float64bits(w.Bound), w.RelativeBound, w.Exact, w.Workers, w.TimeoutMS)
	}
	return b.String()
}

// primers holds, per wire kind, a body both decoders accept, with long
// arrays and many instances: decoding it and resetting leaves scratch
// whose slices have capacity, as a pooled scratch has in the daemon.
var primers = map[string][]byte{
	"solve": []byte(`{"pipeline":{"works":[9,9,9,9,9,9,9,9,9,9,9,9],"deltas":[8,8,8,8,8,8,8,8,8,8,8,8,8]},"platform":{"kind":"fully-heterogeneous","speeds":[7,7,7,7,7],"bandwidth":6,"links":[[5,5,5,5,5],[5,5,5,5,5],[5,5,5,5,5],[5,5,5,5,5],[5,5,5,5,5]]},"objective":"min-period","bound":4,"mode":"best","timeout_ms":3}`),
	"sweep": []byte(`{"pipeline":{"works":[9,9,9,9,9,9,9,9,9,9,9,9],"deltas":[8,8,8,8,8,8,8,8,8,8,8,8,8]},"platform":{"kind":"fully-heterogeneous","speeds":[7,7,7,7,7],"bandwidth":6,"links":[[5,5,5,5,5],[5,5,5,5,5],[5,5,5,5,5],[5,5,5,5,5],[5,5,5,5,5]]},"points":4,"timeout_ms":3}`),
	"batch": []byte(`{"instances":[` + strings.Repeat(`{"pipeline":{"works":[9,9,9,9,9,9],"deltas":[8,8,8,8,8,8,8]},"platform":{"kind":"fully-heterogeneous","speeds":[7,7,7,7],"bandwidth":6,"links":[[5,5,5,5],[5,5,5,5],[5,5,5,5],[5,5,5,5]]}},`, 5) +
		`{"pipeline":{"works":[9],"deltas":[8,8]},"platform":{"speeds":[7],"bandwidth":6}}],"objective":"min-period","bound":4,"relative_bound":true,"exact":true,"workers":2,"timeout_ms":3}`),
}

// checkDecode decodes body into each wire kind with the reader and with
// the oracle, on fresh scratch and on primed, reset scratch, and fails
// unless both accept or both reject, and on accept leave equal state.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	for _, k := range wireKinds {
		for _, primed := range []bool{false, true} {
			got, want := k.fresh(), k.fresh()
			if primed {
				if err := decodeWire(primers[k.name], got); err != nil {
					t.Fatalf("%s primer: %v", k.name, err)
				}
				if err := decodeOracle(primers[k.name], want); err != nil {
					t.Fatalf("%s primer (oracle): %v", k.name, err)
				}
				got.reset()
				want.reset()
			}
			gotErr, wantErr := decodeWire(body, got), decodeOracle(body, want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s (primed %t) body %q: reader error %v, encoding/json error %v", k.name, primed, body, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if g, w := describe(got), describe(want); g != w {
				t.Fatalf("%s (primed %t) body %q decodes differently:\nreader:        %s\nencoding/json: %s", k.name, primed, body, g, w)
			}
		}
	}
}

// decodeTable is the committed differential table: the corners of
// encoding/json's semantics that the reader keeps, each tried against
// all three wire kinds.
var decodeTable = []string{
	// Duplicate keys with null and []: the last key decodes in place.
	`{"pipeline":{"works":[1,2,3],"works":[null,null]}}`,
	`{"pipeline":{"works":[1,2],"works":[null,5]}}`,
	`{"pipeline":{"works":[1],"works":[],"works":[null]}}`,
	`{"pipeline":{"works":[1,2,3,4],"works":[5],"works":[null,null,null]}}`,
	`{"pipeline":{"works":[1,2]},"pipeline":{"works":null},"pipeline":{"works":[null]}}`,
	`{"pipeline":{"works":[1],"deltas":[2,3]},"pipeline":null}`,
	`{"pipeline":{"works":[1]},"pipeline":{}}`,
	`{"platform":{"links":[[1,2],[3]],"links":[null,[null,null,7]]}}`,
	`{"platform":{"links":[[1,2],[3]],"links":[],"links":[[null]]}}`,
	`{"platform":{"links":[[1,2]],"links":[[]],"links":[[null,null]]}}`,
	`{"platform":{"speeds":[1,2],"kind":"grid","bandwidth":3},"platform":{"speeds":[null,null,null],"kind":null,"bandwidth":null}}`,
	`{"instances":[{"pipeline":{"works":[1]}}],"instances":[null]}`,
	`{"instances":[{"pipeline":{"works":[1,2]}}],"instances":[{"pipeline":{"works":[null]}}]}`,
	`{"instances":[{"pipeline":{"works":[1]}},{}],"instances":[],"instances":[null,null]}`,
	`{"instances":[{"pipeline":{"works":[1]}}],"instances":null}`,
	`{"mode":"best","mode":null,"objective":"min-period","objective":null,"timeout_ms":7,"timeout_ms":null}`,
	`{"bound":1,"bound":null,"points":3,"points":null}`,
	`{"relative_bound":true,"relative_bound":null,"exact":true,"exact":false,"workers":2,"workers":null}`,
	`{"pipeline":null,"platform":null,"instances":[null]}`,
	// Case-folded and escaped keys.
	`{"Pipeline":{"WORKS":[1]}}`,
	`{"PiPeLiNe":{"Works":[1],"DELTAS":[2]},"PLATFORM":{"Speeds":[3],"BANDWIDTH":4,"Kind":"comm-homogeneous"}}`,
	`{"TIMEOUT_MS":5,"Timeout_Ms":6,"Bound":2,"MODE":"exact","Objective":"min-period"}`,
	`{"Points":3,"INSTANCES":[],"Relative_Bound":true,"EXACT":true,"Workers":1}`,
	`{"pipeline":{"works":[1]}}`,
	`{"PIPELINE":{"WORKS":[1]}}`,
	`{"timeout_ms":1}`,
	`{"time\/out_ms":1}`,
	`{"\u0070ipeline":{"works":[1]}}`,
	`{"pipelin\u0065":{"w\u006frks":[1]},"\u0050LATFORM":{"speeds":[2]}}`,
	`{"platform":{"\u017fpeeds":[1],"lin\u212as":[[1]]}}`,
	`{"mode":"b\u0065st","objective":"min-p\u0065riod"}`,
	// Keys that fold only under Unicode rules: ſ (U+017F) and the Kelvin
	// sign (U+212A) fold to ASCII letters, dotted and dotless i do not.
	`{"platform":{"ſpeeds":[1]}}`,
	`{"platform":{"linKs":[[1]]}}`,
	`{"platform":{"ſpeeds":[1],"linKs":[[2]]}}`,
	`{"pİpeline":{}}`,
	`{"pıpeline":{}}`,
	// Invalid UTF-8 and escapes in keys and values.
	"{\"\xffworks\":1}",
	"{\"pipeline\":{\"works\xff\":[1]}}",
	"{\"mode\":\"\xff\"}",
	"{\"mode\":\"a\xc3\",\"objective\":\"\xed\xa0\x80\"}",
	`{"mode":"best","kind":"x"}`,
	`{"platform":{"kind":"fully-heterogeneous"},"platform":{"kind":"comm-homogeneous"}}`,
	`{"mode":"é𐀀\ud800"}`,
	`{"mode":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"mode":"\x"}`,
	`{"mode":"\u12"}`,
	"{\"mode\":\"a\x01b\"}",
	"{\"mode\":\"a\tb\"}",
	"{\"mo\x7fde\":1}",
	`{"mode":"H1","objective":"MIN-PERIOD","platform":{"kind":""}}`,
	// The number grammar and strconv's range.
	`{"bound":01}`, `{"bound":+1}`, `{"bound":.5}`, `{"bound":1.}`, `{"bound":-}`,
	`{"bound":1e}`, `{"bound":1e+}`, `{"bound":-01}`, `{"bound":00}`, `{"bound":1.2.3}`,
	`{"bound":0x10}`, `{"bound":Infinity}`, `{"bound":NaN}`, `{"bound":1_0}`, `{"bound":--1}`,
	`{"bound":1.5e3}`, `{"bound":-0}`, `{"bound":-0.0}`, `{"bound":1E-2}`, `{"bound":0.1e+1}`,
	`{"bound":1e400}`, `{"bound":-1e400}`, `{"bound":1e-400}`, `{"bound":4.9e-324}`,
	`{"bound":1.7976931348623157e308}`, `{"bound":1.7976931348623159e308}`,
	`{"bound":123456789012345678901234567890}`, `{"bound":0.30000000000000004441}`,
	`{"pipeline":{"works":[1e400]}}`, `{"pipeline":{"works":[-0,0,-0.0]}}`,
	`{"timeout_ms":1.5}`, `{"timeout_ms":1e2}`, `{"timeout_ms":-0}`, `{"timeout_ms":10}`,
	`{"timeout_ms":9223372036854775807}`, `{"timeout_ms":9223372036854775808}`,
	`{"timeout_ms":-9223372036854775808}`, `{"timeout_ms":-9223372036854775809}`,
	`{"points":3}`, `{"points":-3}`, `{"points":3.0}`, `{"workers":2}`, `{"workers":"2"}`,
	// Type mismatches.
	`{"bound":"1"}`, `{"bound":true}`, `{"bound":[1]}`, `{"bound":{}}`,
	`{"mode":1}`, `{"mode":true}`, `{"mode":["best"]}`, `{"mode":{}}`,
	`{"pipeline":[]}`, `{"pipeline":1}`, `{"pipeline":"x"}`, `{"pipeline":true}`,
	`{"pipeline":{"works":{}}}`, `{"pipeline":{"works":[[1]]}}`, `{"pipeline":{"works":["1"]}}`,
	`{"pipeline":{"works":1}}`, `{"pipeline":{"works":"1"}}`, `{"pipeline":{"works":[true]}}`,
	`{"relative_bound":1}`, `{"relative_bound":"true"}`, `{"exact":[]}`,
	`{"instances":[1]}`, `{"instances":[[]]}`, `{"instances":{}}`, `{"instances":["x"]}`,
	`{"platform":{"links":[1]}}`, `{"platform":{"links":[[[1]]]}}`, `{"platform":{"links":[{}]}}`,
	`{"platform":{"links":{}}}`, `{"platform":{"bandwidth":[1]}}`, `{"platform":{"kind":2}}`,
	// Top-level shapes and trailing data.
	``, ` `, "\n\t\r ", `null`, ` null `, `null]`, `null}x`, `nul`, `nullx`, `null null`,
	`[]`, `[1]`, `"x"`, `1`, `true`, `false`, `-`,
	`{}`, `{} `, `{}]`, `{}}`, `{} ]garbage`, "{}\n}\xff", `{}x`, `{} {}`, `{}{}`, `{},`, `{}[`,
	`{`, `{"`, `{"pipeline"`, `{"pipeline":`, `{"pipeline":{}`, `{"pipeline":{}}}`,
	`{"pipeline":{"works":[1`, `{"pipeline":{"works":[1,`, `{"pipeline":{"works":[`,
	`{,}`, `{"bound":1,}`, `{"bound" 1}`, `{"bound":1 "mode":"best"}`, `{'bound':1}`, `{bound:1}`,
	`{"pipeline":{"works":[1,]}}`, `{"pipeline":{"works":[,1]}}`, `{"pipeline":{"works":[1 2]}}`,
	`{"pipeline":{"works":[1],}}`, `{"pipeline":{"works":[1]]}}`,
	"\xef\xbb\xbf{}", "{\"bound\":1\x00}", `{"bound":tru}`, `{"relative_bound":truex}`,
	`{"relative_bound":true}`, `{"exact":false}`, `{"exact":nul}`, `{"exact":fals}`,
	` { "pipeline" : { "works" : [ 1 , 2 ] , "deltas":[ 3,4 ,5 ] } ,` + "\n\t\r" + `"bound" : 2 } `,
	// Unknown keys at every depth.
	`{"bogus":1}`, `{"bogus":}`, `{"pipeline":{"works":[1],"bogus":1}}`,
	`{"platform":{"speeds":[1],"bogus":[1]}}`, `{"instances":[{"bogus":1}]}`,
	`{"instances":[{"pipeline":{"bogus":1}}]}`, `{"instances":[{"platform":{"links":[[1]],"bogus":null}}]}`,
	`{"":1}`, `{"pipeline":{"":[]}}`,
}

// decodeTableBodies returns the table plus real request bodies: solve,
// fully heterogeneous and sweep bodies, and bulk batch bodies.
func decodeTableBodies(tb testing.TB) [][]byte {
	var out [][]byte
	for _, s := range decodeTable {
		out = append(out, []byte(s))
	}
	out = append(out, benchmarkSolveBody(tb), sweepBodyJSON(tb), fullHetSolveBody(tb))
	for _, shape := range bulkShapes {
		out = append(out, bulkBatchBody(tb, shape.n, shape.p, 4))
	}
	return out
}

func TestWireDecodeMatchesJSON(t *testing.T) {
	for _, body := range decodeTableBodies(t) {
		checkDecode(t, body)
	}
}

// FuzzWireDecodeMatchesJSON explores from the table: any body must be
// accepted or rejected by the reader exactly as by encoding/json, and
// decode to the same state.
func FuzzWireDecodeMatchesJSON(f *testing.F) {
	for _, body := range decodeTableBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// TestNestedUnknownKeyRejected pins the strictness of nested objects: an
// unknown key inside a pipeline, a platform or a batch instance is a 400
// whose body names the key, as at the top level.
func TestNestedUnknownKeyRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ name, path, key, body string }{
		{"pipeline", "/v1/solve", "bogusPipe", `{"pipeline":{"works":[1],"deltas":[1,1],"bogusPipe":1},"platform":{"speeds":[1],"bandwidth":1},"bound":1}`},
		{"platform", "/v1/sweep", "bogusPlat", `{"pipeline":{"works":[1],"deltas":[1,1]},"platform":{"speeds":[1],"bandwidth":1,"bogusPlat":1}}`},
		{"instance", "/v1/batch", "bogusInst", `{"instances":[{"pipeline":{"works":[1],"deltas":[1,1]},"platform":{"speeds":[1],"bandwidth":1},"bogusInst":1}],"bound":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts, tc.path, []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), `unknown field \"`+tc.key+`\"`) {
				t.Fatalf("error does not name %q: %s", tc.key, data)
			}
		})
	}
}

// bulkShapes are loopbench bulk's batch shapes: n ∈ {20, 40} stages and
// p ∈ {10, 100} processors.
var bulkShapes = []struct{ n, p int }{{20, 10}, {20, 100}, {40, 10}, {40, 100}}

// bulkBatchBody renders a batch of 16 fresh pipelines sharing one
// platform, the body loopbench's bulk workload sends.
func bulkBatchBody(tb testing.TB, n, p int, seed int64) []byte {
	tb.Helper()
	plat := workload.Generate(workload.Config{Family: workload.E3, Stages: n, Processors: p, Seed: seed}).Plat
	ins := make([]workload.Instance, 16)
	for i := range ins {
		ins[i] = workload.Generate(workload.Config{Family: workload.E3, Stages: n, Processors: p, Seed: seed*100 + int64(i)})
		ins[i].Plat = plat
	}
	body, err := json.Marshal(BatchRequest{Instances: ins, Objective: "min-period", Bound: 1.5, RelativeBound: true})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sweepBodyJSON renders a /v1/sweep body for the shared bench instance.
func sweepBodyJSON(tb testing.TB) []byte {
	tb.Helper()
	in := testWorkload()
	body, err := json.Marshal(SweepRequest{Pipeline: in.App, Platform: in.Plat, Points: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// fullHetSolveBody renders a /v1/solve body on a fully heterogeneous
// platform.
func fullHetSolveBody(tb testing.TB) []byte {
	tb.Helper()
	in := testWorkload()
	speeds := in.Plat.Speeds()
	links := make([][]float64, len(speeds))
	for u := range links {
		links[u] = make([]float64, len(speeds))
		for v := range links[u] {
			if u != v {
				links[u][v] = float64(1 + (u+v)%5)
			}
		}
	}
	plat, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Pipeline: in.App, Platform: plat, Objective: "min-latency", Bound: 1e6, Mode: "best"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestOverLimitBodyRejectedInBothModes pins one over-limit behaviour: a
// valid solve object followed by padding past MaxBodyBytes is a 400 in
// single-node and in peer mode, sent with a Content-Length or chunked.
// The object alone is served. (A streaming decoder used to stop reading
// at the object's end and serve such a body in single-node mode.)
func TestOverLimitBodyRejectedInBothModes(t *testing.T) {
	body := solveBody(t, testInstance(t), map[string]any{"bound": 1e6})
	padded := append(append([]byte(nil), body...), bytes.Repeat([]byte(" "), 256)...)
	for _, peer := range []bool{false, true} {
		ts := httptest.NewUnstartedServer(nil)
		opts := Options{MaxBodyBytes: int64(len(body) + 64)}
		if peer {
			self := "http://" + ts.Listener.Addr().String()
			topo, err := cluster.NewTopology([]string{self}, self)
			if err != nil {
				t.Fatal(err)
			}
			opts.Cluster = &ClusterConfig{Topology: topo}
		}
		ts.Config.Handler = New(opts)
		ts.Start()
		t.Cleanup(ts.Close)
		if resp, data := post(t, ts, "/v1/solve", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("peer %t: the object alone: status %d: %s", peer, resp.StatusCode, data)
		}
		for _, chunked := range []bool{false, true} {
			var rd io.Reader = bytes.NewReader(padded)
			if chunked {
				rd = io.MultiReader(rd) // no length known: sent chunked
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", rd)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "too large") {
				t.Errorf("peer %t, chunked %t: status %d, want 400 naming the limit: %s", peer, chunked, resp.StatusCode, data)
			}
		}
	}
}
