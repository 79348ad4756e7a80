// Package cluster_test holds the in-process fleet harness: N service
// instances behind loopback HTTP listeners sharing one topology, driven
// by the same loadgen engine cmd/pipeschedbench uses. It runs under
// go test -race, so the CI cluster lane exercises the full peer path —
// ownership, forwarding, fallback, anti-entropy — with the race detector
// on, which the subprocess-based e2e script cannot.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/loadgen"
	"pipesched/internal/service"
	"pipesched/internal/workload"
)

// fleet is an in-process cluster: the unstarted-server trick resolves
// every listener address before any topology is built, which is exactly
// the order the daemons need (each node must know the full fleet list at
// construction).
type fleet struct {
	srvs []*service.Server
	http []*httptest.Server
	urls []string
}

// startFleet brings up n peer-aware nodes on loopback. Forward timeout
// and backoff are kept short so failure-path tests run in milliseconds.
func startFleet(t testing.TB, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		f.http = append(f.http, ts)
		f.urls = append(f.urls, "http://"+ts.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		topo, err := cluster.NewTopology(f.urls, f.urls[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Options{
			Cluster: &service.ClusterConfig{
				Topology:       topo,
				ForwardTimeout: 500 * time.Millisecond,
				PeerBackoff:    200 * time.Millisecond,
			},
		})
		f.srvs = append(f.srvs, srv)
		f.http[i].Config.Handler = srv
	}
	t.Cleanup(func() {
		for _, ts := range f.http {
			ts.Close()
		}
	})
	return f
}

// start starts node i's listener (startFleet leaves all nodes unstarted
// so tests control join order).
func (f *fleet) start(i int) { f.http[i].Start() }

func (f *fleet) startAll() {
	for i := range f.http {
		f.start(i)
	}
}

// startReference brings up a plain single-node service — the bit-identity
// oracle.
func startReference(t testing.TB) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Options{}))
	t.Cleanup(ts.Close)
	return ts
}

// solveBody renders one deterministic solve request, the same shape
// loadgen sends.
func solveBody(t testing.TB, seed int64) []byte {
	t.Helper()
	in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
	b, err := json.Marshal(map[string]any{"pipeline": in.App, "platform": in.Plat, "bound": 1e6})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postSolve issues one solve and returns status, X-Cache tier and body.
func postSolve(t testing.TB, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// TestFleetBitIdentity is the acceptance check of the cluster lane run
// in-process: a 3-node fleet must return byte-identical bodies to a
// single node for the same deterministic, Zipf-skewed request stream,
// with zero client-visible errors. loadgen's verify mode does the
// comparison per response.
func TestFleetBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 3)
	f.startAll()
	ref := startReference(t)

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:      f.urls,
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     300,
		Keys:         24,
		Seed:         7,
		Stages:       6,
		Processors:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 300 {
		t.Fatalf("sent %d of 300", rep.Sent)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("fleet diverged from single node: %d errors, %d mismatches (tiers %v, statuses %v)",
			rep.Errors, rep.Mismatches, rep.Tiers, rep.Statuses)
	}
	// The stream must actually have exercised the peer path: with 3 nodes,
	// R=2 and round-robin targeting, ~1/3 of first-touches land outside
	// the key's replica set.
	if rep.Tiers["remote-hit"]+rep.Tiers["remote-miss"]+rep.Tiers["hedged-hit"] == 0 {
		t.Fatalf("no request took the forward path: tiers %v", rep.Tiers)
	}
	// Forward traffic must show up in the owners' metrics.
	owned := uint64(0)
	for _, srv := range f.srvs {
		if c := srv.Metrics().Cluster; c != nil {
			owned += c.OwnedForwards
		}
	}
	if owned == 0 {
		t.Fatal("no node served a forwarded request")
	}
}

// TestFleetSurvivesPeerDeath kills one node mid-run: requests against the
// survivors must keep returning byte-identical 200s — the owner's death
// degrades its keys to local fallback solves, never to client errors.
func TestFleetSurvivesPeerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 3)
	f.startAll()
	ref := startReference(t)

	warm, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:  f.urls,
		Workers:  8,
		Requests: 150,
		Keys:     24,
		Seed:     7,
		Stages:   6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm phase saw %d errors", warm.Errors)
	}

	f.http[2].Close() // kill one peer; its keys must fail over to replicas

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:      f.urls[:2],
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     200,
		Keys:         24,
		Seed:         11, // a different draw order so dead-owner keys recur
		Stages:       6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("peer death leaked to clients: %d errors, %d mismatches (tiers %v, statuses %v)",
			rep.Errors, rep.Mismatches, rep.Tiers, rep.Statuses)
	}

	// With R=2 one death costs no cache coverage: a fresh key whose
	// replica set contained the dead node still has a live replica, so
	// the forward fails over (hedged-hit while the death is undetected,
	// remote-* once the dead peer is marked down) and fallback solves
	// stay the all-replicas-down last resort, not the common case. Probe
	// fresh keys and require every one to come back 200 byte-identical,
	// with at least one taking the failover path.
	sawFailover := false
	for seed := int64(1000); seed < 1032; seed++ {
		body := solveBody(t, seed)
		status, tier, got := postSolve(t, f.urls[0], body)
		if status != http.StatusOK {
			t.Fatalf("post-death solve: status %d: %s", status, got)
		}
		switch tier {
		case "hedged-hit", "remote-hit", "remote-miss":
			sawFailover = true
			refStatus, _, want := postSolve(t, ref.URL, body)
			if refStatus != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("failover body diverged from reference:\n%s\nvs\n%s", got, want)
			}
		}
	}
	if !sawFailover {
		t.Fatal("no fresh key took the replica failover path although a peer is dead")
	}
}

// postLocal posts with the forward-suppression header set, so the node
// solves locally no matter who owns the key. Tests use it to populate
// one node's cache without emitting forwards (a forward parked in an
// unstarted joiner's accept backlog would replay once the joiner starts
// and warm it by accident).
func postLocal(t testing.TB, url string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// TestFleetJoinWarmup covers the joining-node lifecycle: a node started
// after the fleet has traffic must serve correct results immediately
// (cold = miss/forward/fallback, never wrong), and after one sync round
// (the round a booting daemon runs at start) must hit locally on keys it
// never solved itself.
func TestFleetJoinWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 2)
	f.start(0) // node 1 joins later

	// Populate node 0 with two keys while the joiner is down, forwarding
	// suppressed so nothing is parked on the joiner's backlog.
	probe := solveBody(t, 100)
	warmOnly := solveBody(t, 200)
	var wantProbe, wantWarm []byte
	for _, req := range []struct {
		body []byte
		want *[]byte
	}{{probe, &wantProbe}, {warmOnly, &wantWarm}} {
		status, _, b := postLocal(t, f.urls[0], req.body)
		if status != http.StatusOK {
			t.Fatalf("pre-join solve: status %d: %s", status, b)
		}
		*req.want = b
	}

	f.start(1) // the node joins cold

	// Before warm-up: correct bytes, whatever the tier.
	status, tier, got := postSolve(t, f.urls[1], probe)
	if status != http.StatusOK || !bytes.Equal(got, wantProbe) {
		t.Fatalf("cold joiner wrong: status %d, body %s, want %s", status, got, wantProbe)
	}
	switch tier {
	case "hit":
		t.Fatalf("cold joiner claims a local hit")
	case "miss", "collapsed", "remote-hit", "remote-miss", "hedged-hit", "fallback":
	default:
		t.Fatalf("unknown X-Cache tier %q", tier)
	}

	n, err := f.srvs[1].SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if n == 0 {
		t.Fatal("warm-up imported nothing although the peer has entries")
	}
	if c := f.srvs[1].Metrics().Cluster; c == nil || c.SyncPulled == 0 {
		t.Fatal("warm-up not reflected in cluster metrics")
	}

	// After warm-up the joiner must hit locally on a key it never saw —
	// warmOnly was only ever solved by node 0.
	status, tier, got = postSolve(t, f.urls[1], warmOnly)
	if status != http.StatusOK || !bytes.Equal(got, wantWarm) {
		t.Fatalf("warmed joiner wrong: status %d, body %s, want %s", status, got, wantWarm)
	}
	if tier != "hit" {
		t.Fatalf("warmed joiner served tier %q for an imported key, want \"hit\"", tier)
	}
}

// TestFleetForwardedTierIsSecondTier pins the second-tier caching
// contract: after a remote-miss forward, the same key on the same
// non-owner node is a local hit — the forwarded bytes were installed.
func TestFleetForwardedTierIsSecondTier(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 3)
	f.startAll()

	// Find a key whose owner is not node 0, from node 0's perspective.
	for seed := int64(0); seed < 32; seed++ {
		body := solveBody(t, seed)
		status, tier, first := postSolve(t, f.urls[0], body)
		if status != http.StatusOK {
			t.Fatalf("solve: status %d: %s", status, first)
		}
		if tier != "remote-miss" && tier != "remote-hit" {
			continue // node 0 owns this key; try another
		}
		status, tier2, second := postSolve(t, f.urls[0], body)
		if status != http.StatusOK || tier2 != "hit" {
			t.Fatalf("repeat after forward: status %d tier %q, want 200 \"hit\"", status, tier2)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("second-tier hit returned different bytes:\n%s\nvs\n%s", first, second)
		}
		return
	}
	t.Fatal("no seed in 32 produced a peer-owned key — suspicious ownership skew")
}

// TestFleetMetricsEndpoint checks the cluster section is served over
// HTTP, since the e2e script scrapes it.
func TestFleetMetricsEndpoint(t *testing.T) {
	f := startFleet(t, 2)
	f.startAll()
	resp, err := http.Get(f.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Cluster *service.ClusterMetricsSnapshot `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cluster == nil {
		t.Fatal("metrics carry no cluster section in peer mode")
	}
	if m.Cluster.Peers != 2 {
		t.Fatalf("cluster.peers = %d, want 2", m.Cluster.Peers)
	}
}
