// Self-healing fleet tests: seed-list join, replica anti-entropy and
// membership-disagreement detection, driven deterministically through
// the same in-process harness as fleet_test.go (Fleet-prefixed names so
// the CI cluster lane's -run Fleet picks them up under -race). The e2e
// script exercises the same flows across real processes; these tests
// pin the semantics tick by tick.
package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/loadgen"
	"pipesched/internal/service"
)

// TestFleetSeedJoin walks the -join bootstrap end to end in-process: a
// new node resolves the fleet from a seed URL, builds its topology at
// the fleet's epoch, announces itself, and every incumbent adopts the
// grown view — after which the whole fleet serves byte-identical
// responses with the joiner as a full member.
func TestFleetSeedJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 2)
	f.startAll()
	ref := startReference(t)
	ctx := context.Background()

	// The joiner knows one seed URL and its own address — nothing else.
	ts := httptest.NewUnstartedServer(nil)
	t.Cleanup(ts.Close)
	joinerURL := "http://" + ts.Listener.Addr().String()
	m, err := cluster.BootstrapMembers(ctx, []string{f.urls[0]}, joinerURL, &http.Client{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("seed bootstrap: %v", err)
	}
	if len(m.Peers) != 3 || !m.Contains(joinerURL) {
		t.Fatalf("bootstrap view %+v, want the 2 seeds plus the joiner", m)
	}
	topo, err := cluster.NewTopology(m.Peers, joinerURL)
	if err != nil {
		t.Fatal(err)
	}
	joiner := service.New(service.Options{
		Cluster: &service.ClusterConfig{
			Topology:       topo,
			Epoch:          m.Epoch,
			ForwardTimeout: 500 * time.Millisecond,
			PeerBackoff:    200 * time.Millisecond,
		},
	})
	ts.Config.Handler = joiner
	ts.Start()

	if err := joiner.AnnounceSelf(ctx); err != nil {
		t.Fatalf("announce: %v", err)
	}

	// Every incumbent must now hold the grown view, stamp-identical to
	// the joiner's — the join propagated without any operator action.
	wantStamp := joiner.Membership().Stamp()
	joined := 0
	for i, srv := range f.srvs {
		mm := srv.Membership()
		if len(mm.Peers) != 3 || !mm.Contains(joinerURL) {
			t.Fatalf("node %d view %+v does not include the joiner", i, mm)
		}
		if got := mm.Stamp(); got != wantStamp {
			t.Fatalf("node %d stamp %s, joiner %s — fleet not converged", i, got, wantStamp)
		}
		if c := srv.Metrics().Cluster; c != nil {
			joined += int(c.JoinsServed)
		}
	}
	if joined == 0 {
		t.Fatal("no incumbent served a join")
	}

	// The grown fleet must be byte-identical to a single node, with the
	// joiner taking client traffic as a full member.
	all := append(append([]string{}, f.urls...), joinerURL)
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Targets:      all,
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     150,
		Keys:         24,
		Seed:         7,
		Stages:       6,
		Processors:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("joined fleet diverged: %d errors, %d mismatches (tiers %v)",
			rep.Errors, rep.Mismatches, rep.Tiers)
	}
}

// fetchDigestKeys scrapes a node's cache-key inventory over the peer
// wire, the same stream the anti-entropy loop reads.
func fetchDigestKeys(t *testing.T, url string) []cluster.Key {
	t.Helper()
	resp, err := http.Get(url + cluster.DigestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest from %s: status %d", url, resp.StatusCode)
	}
	keys, err := cluster.DecodeDigest(resp.Body, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(keys, func(a, b cluster.Key) int { return slices.Compare(a[:], b[:]) })
	return keys
}

// TestFleetAntiEntropy pins the replica-sync contract: entries solved on
// one replica reach the other with zero client traffic, the replica set
// converges digest-equal in one round per direction, and a converged
// pair syncs nothing.
func TestFleetAntiEntropy(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 2)
	f.startAll()
	ctx := context.Background()

	// Populate node 0 only, forwards suppressed: node 1's cache stays
	// empty, exactly the state a restarted replica wakes up in. With 2
	// nodes and R=2 every key's replica set is both nodes.
	const keys = 8
	for seed := int64(0); seed < keys; seed++ {
		status, _, b := postLocal(t, f.urls[0], solveBody(t, 3000+seed))
		if status != http.StatusOK {
			t.Fatalf("populate: status %d: %s", status, b)
		}
	}

	pulled, err := f.srvs[1].SyncOnce(ctx)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if pulled != keys {
		t.Fatalf("first sync pulled %d entries, want %d", pulled, keys)
	}
	if got, want := fetchDigestKeys(t, f.urls[1]), fetchDigestKeys(t, f.urls[0]); !slices.Equal(got, want) {
		t.Fatalf("replicas not digest-equal after one sync round: %d vs %d keys", len(got), len(want))
	}

	// Converged replicas sync nothing, in either direction.
	for i, srv := range f.srvs {
		if n, err := srv.SyncOnce(ctx); err != nil || n != 0 {
			t.Fatalf("converged node %d pulled %d entries (err %v), want 0", i, n, err)
		}
	}

	c := f.srvs[1].Metrics().Cluster
	if c == nil || c.SyncRounds < 2 || c.SyncPulled != keys {
		t.Fatalf("sync not reflected in metrics: %+v", c)
	}

	// The synced entries are real second-tier hits: node 1 serves them
	// locally, byte-identical to node 0's copies.
	for seed := int64(0); seed < keys; seed++ {
		body := solveBody(t, 3000+seed)
		status, tier, got := postLocal(t, f.urls[1], body)
		if status != http.StatusOK || tier != "hit" {
			t.Fatalf("synced key seed %d: status %d tier %q, want 200 \"hit\"", seed, status, tier)
		}
		_, _, want := postLocal(t, f.urls[0], body)
		if string(got) != string(want) {
			t.Fatalf("synced entry diverged:\n%s\nvs\n%s", got, want)
		}
	}
}

// TestFleetSelfHealingBootSync pins the boot warm-up: RunSelfHealing
// runs its first sync round as soon as it starts, so a cold node pulls
// the entries it replicates within seconds, not one sync interval (here
// an hour) later.
func TestFleetSelfHealingBootSync(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 2)
	f.startAll()

	// Node 0 holds the entries; node 1 is cold. With 2 nodes and R=2
	// node 1 replicates every key.
	const keys = 4
	for seed := int64(0); seed < keys; seed++ {
		status, _, b := postLocal(t, f.urls[0], solveBody(t, 4000+seed))
		if status != http.StatusOK {
			t.Fatalf("populate: status %d: %s", status, b)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.srvs[1].RunSelfHealing(ctx, 0, time.Hour)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	deadline := time.Now().Add(5 * time.Second)
	for {
		c := f.srvs[1].Metrics().Cluster
		if c.SyncPulled == keys {
			if c.SyncRounds != 1 {
				t.Fatalf("sync_rounds = %d after the boot round, want 1", c.SyncRounds)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no boot sync round within 5s of starting: %+v", c)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for seed := int64(0); seed < keys; seed++ {
		if status, tier, _ := postLocal(t, f.urls[1], solveBody(t, 4000+seed)); status != http.StatusOK || tier != "hit" {
			t.Fatalf("seed %d after the boot round: status %d tier %q, want 200 \"hit\"", seed, status, tier)
		}
	}
}

// TestFleetMembershipDisagreement drives the one split the merge rules
// refuse to heal silently — an operator view that excludes a live node —
// and checks it surfaces as counters on both sides instead of a wrong
// adoption: the excluded node keeps its own view (it never adopts a view
// without itself), and every side's mismatch counter moves.
func TestFleetMembershipDisagreement(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test in -short mode")
	}
	f := startFleet(t, 3)
	f.startAll()
	ctx := context.Background()

	// Operator shrinks the fleet to nodes 0+1 — but node 2 never gets the
	// memo (its peers file is stale).
	for i := 0; i < 2; i++ {
		topo, err := cluster.NewTopology(f.urls[:2], f.urls[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.srvs[i].ReloadTopology(ctx, topo); err != nil {
			t.Fatalf("reload node %d: %v", i, err)
		}
	}

	before := f.srvs[2].Membership()

	// Node 2 gossips and learns the survivors' higher-epoch view — which
	// excludes it. Adoption must be refused: epoch and peer list stay,
	// the rejection and mismatch are counted.
	changed, err := f.srvs[2].GossipOnce(ctx)
	if err != nil {
		t.Fatalf("gossip: %v", err)
	}
	if changed {
		t.Fatal("excluded node adopted a view without itself")
	}
	after := f.srvs[2].Membership()
	if !after.Equal(before) {
		t.Fatalf("excluded node's view moved: %+v -> %+v", before, after)
	}
	c2 := f.srvs[2].Metrics().Cluster
	if c2 == nil || c2.MembershipsRejected == 0 || c2.MembershipMismatches == 0 {
		t.Fatalf("rejection not counted on the excluded node: %+v", c2)
	}
	if c2.MembershipEpoch != 0 || c2.Peers != 3 {
		t.Fatalf("excluded node's epoch moved: %+v", c2)
	}

	// The disagreement is visible on the survivor side too: node 2's
	// exchange carried its stale stamp, which no survivor matches.
	survivorMismatches := uint64(0)
	for i := 0; i < 2; i++ {
		c := f.srvs[i].Metrics().Cluster
		if c == nil {
			t.Fatalf("node %d lost its cluster metrics", i)
		}
		if c.MembershipEpoch != 1 || c.Peers != 2 {
			t.Fatalf("survivor %d did not hold the shrunk view: %+v", i, c)
		}
		survivorMismatches += c.MembershipMismatches
	}
	if survivorMismatches == 0 {
		t.Fatal("no survivor observed the stale stamp")
	}
	if f.srvs[0].Membership().Stamp() == after.Stamp() {
		t.Fatal("stamps agree although the views differ — disagreement would be invisible")
	}
	if f.srvs[0].Membership().Stamp() != f.srvs[1].Membership().Stamp() {
		t.Fatal("survivors disagree with each other")
	}
}
