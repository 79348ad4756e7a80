package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/faultinject"
	"pipesched/internal/loadgen"
	"pipesched/internal/service"
)

// benchFleetHits measures fleet hit-serving throughput: every key in the
// universe is pre-installed on every node (forward-suppressed posts, so
// the warm-up itself emits no peer traffic), then the same deterministic
// Zipf stream cmd/pipeschedbench generates is replayed with b.N
// requests — all local hits, end to end over loopback HTTP. Comparing
// the single-node and 3-node rows in BENCH_*.json shows what peer-aware
// serving costs (or buys) on the hot path.
func benchFleetHits(b *testing.B, nodes int) {
	const keys = 16
	const seed = 5
	f := startFleet(b, nodes)
	f.startAll()
	for i := int64(0); i < keys; i++ {
		body := solveBody(b, seed+i) // loadgen derives instance i from Seed+i
		for _, url := range f.urls {
			if status, _, resp := postLocal(b, url, body); status != http.StatusOK {
				b.Fatalf("warm post: status %d: %s", status, resp)
			}
		}
	}

	b.ResetTimer()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:  f.urls,
		Workers:  8,
		Requests: b.N,
		Keys:     keys,
		Seed:     seed,
		Stages:   6, Processors: 4,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors != 0 {
		b.Fatalf("bench run saw %d errors (statuses %v)", rep.Errors, rep.Statuses)
	}
	if rep.Tiers["hit"] != rep.Sent {
		b.Fatalf("bench run was not all hits: tiers %v", rep.Tiers)
	}
	b.ReportMetric(rep.QPS, "qps")
	b.ReportMetric(rep.Latency.P99MS, "p99ms")
}

func BenchmarkFleetServe(b *testing.B) {
	b.Run("single-node", func(b *testing.B) { benchFleetHits(b, 1) })
	b.Run("3-node", func(b *testing.B) { benchFleetHits(b, 3) })
}

// BenchmarkFleetForward isolates the owner-forward round trip: a 2-node
// fleet where the measured node has local cache storage disabled
// (CacheEntries < 0), so every request for a peer-owned key misses
// locally and proxies to the warm owner — a pure forward + relay cycle,
// the cost a cold or storage-starved node pays to serve another node's
// keys.
func BenchmarkFleetForward(b *testing.B) {
	var tss [2]*httptest.Server
	var urls [2]string
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
		defer tss[i].Close()
	}
	for i := range tss {
		topo, err := cluster.NewTopology(urls[:], urls[i])
		if err != nil {
			b.Fatal(err)
		}
		entries := 0
		if i == 0 {
			entries = -1 // the measured node never caches: every request forwards
		}
		// R=1: with the default R=2 a two-node fleet puts self in every
		// replica set and nothing would forward.
		tss[i].Config.Handler = service.New(service.Options{
			CacheEntries: entries,
			Cluster:      &service.ClusterConfig{Topology: topo, Replicas: 1},
		})
		tss[i].Start()
	}

	// Warm the owner with candidate keys and keep those node 0 forwards
	// (remote-hit proves peer ownership; node 0 stores nothing, so the
	// probe does not contaminate the measurement).
	var bodies [][]byte
	for seed := int64(100); seed < 200 && len(bodies) < 8; seed++ {
		body := solveBody(b, seed)
		if status, _, _ := postLocal(b, urls[1], body); status != http.StatusOK {
			b.Fatalf("warm post: status %d", status)
		}
		status, tier, _ := postSolve(b, urls[0], body)
		if status != http.StatusOK {
			b.Fatalf("probe: status %d", status)
		}
		if tier == "remote-hit" {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) == 0 {
		b.Fatal("no peer-owned key found")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, tier, _ := postSolve(b, urls[0], bodies[i%len(bodies)])
		if status != http.StatusOK || tier != "remote-hit" {
			b.Fatalf("iteration %d: status %d tier %q, want a remote-hit forward", i, status, tier)
		}
	}
}

// BenchmarkFleetHedgedForward prices the hedge path in steady state: the
// rank-0 replica of every measured key sits behind an injected latency
// far past the hedge delay, so each forward waits out hedge-after, races
// a second attempt at the rank-1 replica, takes its answer and cancels
// the laggard. The delta against BenchmarkFleetForward is what a hedged
// hit costs over a clean one — the price of tail-latency insurance when
// a replica is slow but not down.
func BenchmarkFleetHedgedForward(b *testing.B) {
	b.Run("steady", benchHedgedSteady)
	b.Run("injected-latency", benchHedgedInjectedLatency)
}

// hedgedFleet starts the 3-node hedge topology: node 0 is the measured
// node (storage disabled, every request forwards, peer traffic routed
// through the schedule the callback builds from the fleet's addresses),
// nodes 1 and 2 are replicas warmed with the candidate key set.
func hedgedFleet(b *testing.B, warmKeys int64, schedule func(urls []string) *faultinject.Schedule) (urls [3]string) {
	var tss [3]*httptest.Server
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
		b.Cleanup(tss[i].Close)
	}
	for i := range tss {
		topo, err := cluster.NewTopology(urls[:], urls[i])
		if err != nil {
			b.Fatal(err)
		}
		entries := 0
		cfg := &service.ClusterConfig{Topology: topo, HedgeAfter: time.Millisecond}
		if i == 0 {
			entries = -1 // the measured node never caches: every request forwards
			cfg.Transport = faultinject.NewTransport(nil, schedule(urls[:]))
		}
		tss[i].Config.Handler = service.New(service.Options{CacheEntries: entries, Cluster: cfg})
		tss[i].Start()
	}
	for seed := int64(100); seed < 100+warmKeys; seed++ {
		body := solveBody(b, seed)
		for _, u := range []string{urls[1], urls[2]} {
			if status, _, _ := postLocal(b, u, body); status != http.StatusOK {
				b.Fatalf("warm post: status %d", status)
			}
		}
	}
	return urls
}

// benchHedgedSteady prices the deterministic hedge: the rank-0 replica
// of every measured key sits behind a fixed 25ms — far past the 1ms
// hedge delay — so each forward waits out hedge-after, races a second
// attempt at the rank-1 replica, takes its answer and cancels the
// laggard. The delta against BenchmarkFleetForward is what a hedged hit
// costs over a clean one.
func benchHedgedSteady(b *testing.B) {
	urls := hedgedFleet(b, 200, func(urls []string) *faultinject.Schedule {
		return &faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{
			{Name: "lag", Hosts: []string{strings.TrimPrefix(urls[2], "http://")}, LatencyMS: 25},
		}}
	})
	// Keep the keys whose rank-0 owner is the slow node: their probes
	// come back hedged.
	var bodies [][]byte
	for seed := int64(100); seed < 300 && len(bodies) < 8; seed++ {
		body := solveBody(b, seed)
		status, tier, _ := postSolve(b, urls[0], body)
		if status != http.StatusOK {
			b.Fatalf("probe: status %d", status)
		}
		if tier == "hedged-hit" {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) == 0 {
		b.Fatal("no key hedged in 200 seeds")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, tier, _ := postSolve(b, urls[0], bodies[i%len(bodies)])
		if status != http.StatusOK || tier != "hedged-hit" {
			b.Fatalf("iteration %d: status %d tier %q, want a hedged hit", i, status, tier)
		}
	}
}

// benchHedgedInjectedLatency is the chaos twin: every peer link out of
// the measured node carries a uniform 0–8ms jitter, so each forward is a
// genuine race between the jittered primary attempt and the 1ms hedge to
// the (equally jittered) other replica — sometimes the primary returns
// first, sometimes the hedge wins. The reported hedge-wins/op is the
// measured hedge-win rate over the run, pinning the tail-latency payoff
// of hedging quantitatively rather than by construction.
func benchHedgedInjectedLatency(b *testing.B) {
	urls := hedgedFleet(b, 32, func(urls []string) *faultinject.Schedule {
		return &faultinject.Schedule{Seed: 7, Rules: []faultinject.Rule{
			{Name: "jitter", JitterMS: 8},
		}}
	})
	// Keep forwarded keys (either replica owns them); keys the measured
	// node owns itself solve locally and never exercise the hedge.
	var bodies [][]byte
	for seed := int64(100); seed < 132 && len(bodies) < 8; seed++ {
		body := solveBody(b, seed)
		status, tier, _ := postSolve(b, urls[0], body)
		if status != http.StatusOK {
			b.Fatalf("probe: status %d", status)
		}
		if tier == "remote-hit" || tier == "hedged-hit" {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) == 0 {
		b.Fatal("no forwarded key found in 32 seeds")
	}

	hedged := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, tier, _ := postSolve(b, urls[0], bodies[i%len(bodies)])
		if status != http.StatusOK {
			b.Fatalf("iteration %d: status %d", i, status)
		}
		if tier == "hedged-hit" {
			hedged++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hedged)/float64(b.N), "hedge-wins/op")
}

// BenchmarkFleetAntiEntropy prices the background replica-sync loop at
// its two operating points. steady-converged is the cost every node pays
// per sync tick once the fleet is quiet — one digest round trip per
// peer, no entry transfer — the overhead budget of running anti-entropy
// continuously. converge-32 is the recovery case: a replica with an
// empty cache pulls the 32 entries it replicates from its warm peer in
// one round, the path a restarted node takes back to digest equality
// with zero client traffic.
func BenchmarkFleetAntiEntropy(b *testing.B) {
	const keys = 32
	ctx := context.Background()

	b.Run("steady-converged", func(b *testing.B) {
		f := startFleet(b, 2)
		f.startAll()
		for seed := int64(0); seed < keys; seed++ {
			body := solveBody(b, 5000+seed)
			for _, url := range f.urls {
				if status, _, resp := postLocal(b, url, body); status != http.StatusOK {
					b.Fatalf("warm post: status %d: %s", status, resp)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := f.srvs[1].SyncOnce(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if n != 0 {
				b.Fatalf("converged sync pulled %d entries", n)
			}
		}
	})

	b.Run("converge-32", func(b *testing.B) {
		// Only the warm node listens; SyncOnce is outbound-only, so the
		// cold replica is rebuilt fresh per iteration against a reserved
		// address that never serves.
		warm := httptest.NewUnstartedServer(nil)
		cold := httptest.NewUnstartedServer(nil)
		b.Cleanup(warm.Close)
		b.Cleanup(cold.Close)
		warmURL := "http://" + warm.Listener.Addr().String()
		coldURL := "http://" + cold.Listener.Addr().String()
		wtopo, err := cluster.NewTopology([]string{warmURL, coldURL}, warmURL)
		if err != nil {
			b.Fatal(err)
		}
		warm.Config.Handler = service.New(service.Options{Cluster: &service.ClusterConfig{Topology: wtopo}})
		warm.Start()
		for seed := int64(0); seed < keys; seed++ {
			if status, _, resp := postLocal(b, warmURL, solveBody(b, 5000+seed)); status != http.StatusOK {
				b.Fatalf("warm post: status %d: %s", status, resp)
			}
		}
		ctopo, err := cluster.NewTopology([]string{warmURL, coldURL}, coldURL)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replica := service.New(service.Options{Cluster: &service.ClusterConfig{Topology: ctopo}})
			n, err := replica.SyncOnce(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if n != keys {
				b.Fatalf("recovery sync pulled %d entries, want %d", n, keys)
			}
		}
		b.StopTimer()
		b.ReportMetric(keys, "entries/op")
	})
}

// BenchmarkFleetJoinWarmup prices the -join boot sequence a new node
// runs before taking traffic: resolve the fleet from a seed
// (GET /v1/peer/members), build the grown topology at the fleet's
// epoch, and warm the cache with the sync round a booting daemon runs
// at start (a digest from each peer, then one fetch of the entries it
// replicates). The row bounds how long a scale-out event keeps a fresh
// node cold.
func BenchmarkFleetJoinWarmup(b *testing.B) {
	const keys = 32
	ctx := context.Background()
	f := startFleet(b, 2)
	f.startAll()
	for seed := int64(0); seed < keys; seed++ {
		body := solveBody(b, 5000+seed)
		for _, url := range f.urls {
			if status, _, resp := postLocal(b, url, body); status != http.StatusOK {
				b.Fatalf("warm post: status %d: %s", status, resp)
			}
		}
	}
	// Reserve the joiner's address; bootstrap and warm-up are
	// outbound-only, so it never serves.
	ts := httptest.NewUnstartedServer(nil)
	b.Cleanup(ts.Close)
	joinerURL := "http://" + ts.Listener.Addr().String()
	hc := &http.Client{Timeout: 2 * time.Second}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cluster.BootstrapMembers(ctx, []string{f.urls[0]}, joinerURL, hc)
		if err != nil {
			b.Fatal(err)
		}
		topo, err := cluster.NewTopology(m.Peers, joinerURL)
		if err != nil {
			b.Fatal(err)
		}
		joiner := service.New(service.Options{Cluster: &service.ClusterConfig{Topology: topo, Epoch: m.Epoch}})
		n, err := joiner.SyncOnce(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("join warm-up imported nothing from a warm fleet")
		}
	}
}

// BenchmarkFleetReplicatedMiss prices replica failover in steady state: a
// 3-node topology where one node is dead and already marked down, so
// every measured request for a key that node owned goes straight to the
// surviving rank-1 replica. This is the row that shows what R=2 buys —
// a peer death degrades its keys to a normal forward against the
// replica, not to a local fallback solve.
func BenchmarkFleetReplicatedMiss(b *testing.B) {
	var tss [3]*httptest.Server
	var urls [3]string
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
		defer tss[i].Close()
	}
	for i := range tss {
		topo, err := cluster.NewTopology(urls[:], urls[i])
		if err != nil {
			b.Fatal(err)
		}
		entries := 0
		if i == 0 {
			entries = -1
		}
		tss[i].Config.Handler = service.New(service.Options{
			CacheEntries: entries,
			// A long backoff keeps the dead peer marked down for the whole
			// run once the first attempt fails.
			Cluster: &service.ClusterConfig{Topology: topo, PeerBackoff: time.Minute},
		})
		if i != 2 {
			tss[i].Start()
		} else {
			// Dead means connection-refused: an unstarted listener would
			// still accept and park connections, which reads as slow, not
			// down, and would never trip the health mark.
			tss[i].Listener.Close()
		}
	}

	// Warm the surviving replica, then keep the keys whose rank-0 owner
	// is the corpse: the first touch hedges into it and fails over
	// (marking it down), every later touch is a plain forward to rank 1.
	var bodies [][]byte
	for seed := int64(100); seed < 300 && len(bodies) < 8; seed++ {
		body := solveBody(b, seed)
		if status, _, _ := postLocal(b, urls[1], body); status != http.StatusOK {
			b.Fatalf("warm post: status %d", status)
		}
		status, tier, _ := postSolve(b, urls[0], body)
		if status != http.StatusOK {
			b.Fatalf("probe: status %d", status)
		}
		if tier != "hedged-hit" {
			continue // rank-0 owner is alive; not the path under test
		}
		if status, tier, _ = postSolve(b, urls[0], body); status != http.StatusOK || tier != "remote-hit" {
			b.Fatalf("settled probe: status %d tier %q, want remote-hit via the replica", status, tier)
		}
		bodies = append(bodies, body)
	}
	if len(bodies) == 0 {
		b.Fatal("no key failed over in 200 seeds")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, tier, _ := postSolve(b, urls[0], bodies[i%len(bodies)])
		if status != http.StatusOK || tier != "remote-hit" {
			b.Fatalf("iteration %d: status %d tier %q, want a replica forward", i, status, tier)
		}
	}
}
