// Package pipesched is a Go reproduction of "Multi-criteria scheduling of
// pipeline workflows" (Anne Benoit, Veronika Rehn-Sonigo, Yves Robert;
// INRIA RR-6232 / CLUSTER 2007).
//
// The library maps n-stage pipeline applications onto Communication
// Homogeneous platforms (different-speed processors, identical links,
// one-port model) under the paper's bi-criteria objective: minimise
// latency under a period bound, or minimise period under a latency bound.
// Both problems are NP-hard (the package executes the paper's
// NP-completeness reduction in pipesched/internal/nmwts); the six
// polynomial heuristics of the paper are provided, together with exact
// exponential reference solvers, a discrete-event simulator validating the
// analytic cost model, the chains-to-chains substrate, a one-to-one
// mapping baseline, and a harness regenerating every figure and table of
// the paper's evaluation.
//
// # Quick start
//
//	app, _ := pipesched.NewPipeline(
//		[]float64{120, 80, 250, 60},     // w_k: per-stage operations
//		[]float64{10, 40, 40, 20, 10})   // δ_k: inter-stage data sizes
//	plat, _ := pipesched.NewPlatform([]float64{20, 14, 8, 5}, 10) // speeds, bandwidth
//	ev := pipesched.NewEvaluator(app, plat)
//
//	res, err := pipesched.BestUnderPeriod(ev, 30) // latency-min mapping, period ≤ 30
//	if err != nil { ... }
//	fmt.Println(res.Mapping, res.Metrics.Period, res.Metrics.Latency)
//
// The cost model follows equations (1) and (2) of the paper: an interval
// of stages [d..e] on processor u has cycle-time δ_{d-1}/b + Σw_i/s_u +
// δ_e/b; the period is the largest cycle-time, and the latency sums the
// input and compute terms of all intervals plus the final output.
//
// # Concurrency: portfolio and batch solving
//
// Both mapping problems are NP-hard, so at scale the library's value
// comes from throwing many solvers at many instances at once. All
// orchestration lives in internal/portfolio, on one pool of GOMAXPROCS
// long-lived solver workers; the solvers stay deterministic and
// single-threaded, and every concurrent entry point returns
// bit-identical results whatever the worker count.
//
//   - BestUnderPeriod and BestUnderLatency race their heuristics and
//     select the winner with the original serial tie-breaking rules.
//   - PortfolioUnderPeriod and PortfolioUnderLatency additionally race
//     the exact DP on ExactEligible platforms and name the winning
//     solver.
//   - SolveBatch solves a slice of WorkloadInstances, at most
//     BatchOptions.Workers (default GOMAXPROCS) at once, with
//     per-instance error capture, context cancellation, and a
//     non-dominated cross-instance frontier in the returned BatchReport.
//   - HeuristicParetoSweep runs one warm-started lane per heuristic in
//     the same way (see the Performance chapter).
//
// For example:
//
//	batch := []pipesched.WorkloadInstance{...}
//	report, err := pipesched.SolveBatch(ctx, batch, pipesched.BatchOptions{
//		Objective:     pipesched.MinimizeLatency,
//		Bound:         1.5, RelativeBound: true, // 1.5 × each period lower bound
//		Exact:         true,                     // race the DP where it fits
//	})
//
// Evaluator, Pipeline, Platform and Mapping are immutable after
// construction and safe for concurrent use; the test-suite hammers one
// shared Evaluator from many workers under the race detector to keep that
// contract honest.
//
// # Performance: the zero-allocation heuristic engine
//
// The Section-4 heuristics H1–H6 share one interval-splitting engine
// that is allocation-free in steady state: its working set (interval
// list, cycle-times, fastest-first free list) lives in a pooled scratch
// leased from the Evaluator, the pooled engine state carries its cost
// tables, candidates are fixed-size values scored on reused buffers,
// splits splice in place, and the only heap work of a solve is
// materialising the returned Mapping (2 allocations). The fully
// heterogeneous splitter scores whole trial mappings on scratch buffers
// via Evaluator.PeriodOf/LatencyOf. The pre-pooling engine survives as a
// frozen test oracle with property tests asserting the rebuilt engine
// matches it bit for bit — intervals, metrics and InfeasibleError
// payloads — across the paper's workload families under the race
// detector, and testing.AllocsPerRun regression tests cap the allocation
// counts of every heuristic, a portfolio race and a sweep point.
//
// The candidate loop is a flat kernel. Candidates read flat tables bound
// at acquire (prefix work, δ_k·(1/b) for cycle-times, δ_k/b for
// latencies, s_u and 1/s_u) instead of the Evaluator, Pipeline and
// Platform accessors, with the accessors' float operations in their
// order. 3-Explo (H2, H3, X7, X8) tabulates a split's last parts once
// and prices a cut pair's first part once per first cut, so a pair
// prices only its middle part. A split's own processor is the fastest of
// its three, so the largest of a pair's part cycle-times priced on it
// bounds all six assignments' worst cycle-time from below. Each part's
// bound grows or falls with one cut (the first and middle parts' once a
// communication term is dropped), so the cut loops stop at, or start
// past, the parts the scan's filter drops, and visit only pairs it might
// keep. For H3 the pair's latency is bounded by the sorted assignment
// (the parts' works in descending order over the three speeds in
// descending order, by the rearrangement inequality), less a relative
// margin for its different summation order; once the scan holds a best
// candidate, a pair whose Δlatency/Δperiod bound already loses is
// skipped without building its candidates. The latency skip runs only
// with no latency cap (H3), where no cap bookkeeping is read. H4's
// capped bisection trials, and its final rewind, replay the uncapped
// trial's logged splits while they meet the trial's latency cap and scan
// only from the first one that does not. Most of those trials repeat an
// earlier one: a cap reaches a trial only through comparisons against
// its limit, so every trial that runs records the largest latency total
// it admitted and the smallest it rejected, and a later cap whose limit
// lies between the two reads that trial's outcome from a per-solve memo
// instead of running it. Every result is bit-identical to the engine
// before. On the repository benchmark's bulk workload (ten alternating
// 20 s pairs, 2-vCPU Xeon) throughput went from 298 to 787 req/s and CPU
// per request from 6.20 to 2.14 ms, with identical answer digests.
//
// Pareto sweeps are warm-started: each heuristic owns a lane that walks
// the sorted bound grid on one pooled engine. Period-constrained
// trajectories are target-independent (the bound only decides when to
// stop), so adjacent grid points extend one trajectory instead of
// recomputing its shared prefix; latency-constrained lanes track the
// smallest cap-rejected candidate latency and skip reruns whose outcome
// provably repeats; every lane stops at its heuristic's failure
// threshold. Per-point results are bit-identical to fresh runs, so
// frontiers are unchanged. BENCH_3 → BENCH_4: the portfolio race drops
// 937µs/1868 allocs → 421µs/20 allocs, one H2 solve 620µs/5272 allocs →
// 256µs/2 allocs, and the sweep benchmarks run 6–8× faster
// (HeuristicParetoSweep 11.3ms/105k allocs → 1.5ms/193 allocs).
//
// # Performance: the class-compressed exact engine
//
// The exact solvers run a speed-class-compressed dynamic program.
// Processors enter the cost model only through their speed, so
// equal-speed processors are interchangeable and the DP tracks per-class
// usage counts instead of a 2^p used-set bitmask: the state space is
// ∏(c_k+1) over the speed-class sizes c_k rather than 2^p. A homogeneous
// 14-processor platform collapses from 16384 states to 15, and platforms
// far beyond the historical 14-processor ceiling solve exactly whenever
// their class structure is small — a 100-processor platform with 2 speed
// classes of 50 is 2601 states. Eligibility (ExactEligible) admits any
// comm-homogeneous platform whose state space fits 2^16, so every
// platform of up to 16 processors qualifies unconditionally.
//
// The DP workspace is pooled: value tables, per-class cost tables (each
// interval's cycle-time beside its latency term) and transition lists
// live in a sync.Pool arena, so repeated solves — portfolio races,
// batches, the daemon's cache-miss path — are allocation-free in steady
// state, and the bound-probing solvers (ExactMinPeriodUnderLatency,
// ExactParetoFront) reuse one arena across all probes. Fills keep values
// only: no fill records which candidate a cell's value came from. The
// solution's path is re-derived afterwards, cell by cell from its final
// cell: each step scans the cell's candidates in the fill's order and
// takes the first whose value equals the cell's bit for bit, which is the
// candidate a strict-improvement backpointer would have recorded, so the
// mapping is unchanged. Binding an arena to a new evaluator reads the state
// structure off a mixed-radix counter of per-class usage digits, one
// step per state. The min-period bisection pays only for the candidates
// it can use: its first probe is always the largest candidate period
// below the race's ceiling, so it collects the interval cycle-times
// below that ceiling, probes their maximum, and sorts them only when
// that probe passes; ExactParetoFront sorts the full set once. The DP
// itself visits states outermost with its tables laid out for
// consecutive inner-loop reads, prunes cells below each state's
// processor-usage floor, and a pooled arena re-acquired for the
// evaluator it last served skips rebinding entirely — bit-identical to
// the row-major formulation.
//
// ExactMinPeriodUnderLatency bisects the candidate periods with
// feasibility probes that exit early: a probe fills states in ascending
// order and stops at the first complete final cell that meets the
// latency bound. Probes are cut at that bound, and the chosen
// candidate's full fill at the latency its proving probe found there: a
// cell is skipped when its remaining work exceeds the period bound times
// the speed its state leaves spare, or when its value plus a completion
// bound exceeds the cutoff. The completion bound is the least latency of
// the remaining stages split into intervals that meet the period bound
// on unlimited processors of the fastest class the state leaves spare,
// built per class only when a row first reads it. Both bounds are
// admissible and consistent, with a 1e-9 relative margin for rounding,
// so neither drops a cell that can still meet the cutoff. Each row
// records its first and last finite cell, and the fill runs
// transition-major: each (class, predecessor) pair visits only the cells
// its window can reach. A cell is also dropped when a state with one
// processor fewer already reaches the same stage at no greater latency
// (a dominance rule): that state can finish every mapping the larger one
// can, so every mapping within the cutoff is still covered by a kept
// cell, and no cell on the winner's path is ever dominated, since its
// dominator would reach an equally good final state of smaller id. So
// the mapping is unchanged bit for bit. The rule costs one comparison
// per cell against a floor of the live predecessors' values. Every
// latency fill runs this one kernel, an uncut one under a cutoff that
// starts at +Inf; a full fill lowers its cutoff to each better final
// latency it finds.
// Inside a portfolio race both DP members poll the incumbent: the
// min-period DP caps its bisection below the best finished H5/H6
// period, and the min-latency DP cuts its fill at the best finished
// H1–H4 latency (non-strictly: an equal latency can still win on its
// period). Either abandons as a lost race when nothing meets its
// ceiling, a result the race's selection could never pick.
//
// The repository benchmark (loopbench, declared in BENCHMARK.json) is the
// performance gate, and CHANGES.md records what each change measured.
// scripts/bench.sh snapshots the layer benchmarks (ns/op, B/op,
// allocs/op) into a temporary file unless given an output.
//
// # Serving: the solver service
//
// The serving layer (internal/service, packaged as cmd/pipeschedd) turns
// the solvers into a long-lived daemon: POST /v1/solve, /v1/batch and
// /v1/sweep accept JSON instances and route them through the portfolio
// engine under per-request contexts and deadlines, GET /healthz and
// /metrics expose liveness and counters. Requests are reduced to a
// canonical byte form and SHA-256 hashed into a bounded LRU result cache
// with singleflight deduplication: a repeated identical request is served
// from memory, and N concurrent identical requests trigger exactly one
// underlying solve. The X-Cache response header reports the disposition
// (miss, hit or collapsed).
//
// NewServer builds the service as an http.Handler for embedding;
// Serve runs the full lifecycle — listen, serve, drain gracefully when
// the context is cancelled:
//
//	srv := pipesched.NewServer(pipesched.ServerOptions{CacheEntries: 4096})
//	http.ListenAndServe(":8080", srv) // or: pipesched.Serve(ctx, ":8080", opts)
//
// # Fully heterogeneous serving
//
// Every endpoint accepts both platform kinds and dispatches by
// capability: comm-homogeneous instances race the paper's H1–H6 plus the
// exact DP where eligible, fully heterogeneous ones ({"kind":
// "fully-heterogeneous", "speeds": ..., "links": ...}) race the
// free-processor-choice lane — F1 (SplitFullyHet under a period bound)
// and F5/F6 (its latency-constrained variants). The capability check is
// a single shared gate (every heuristic implements Supports; the engine
// returns a typed ErrUnsupportedPlatform instead of panicking), so no
// servable request can reach a solver panic; a fuzz target pins this.
// Canonical cache keys cover the platform kind and every per-link
// bandwidth, so platforms differing in one link never share an entry.
// Mode "exact" remains comm-homogeneous-only: the DP's speed-class
// compression does not extend to per-link bandwidths.
//
// # Serving performance: the high-QPS hot path
//
// The serving path is built so that the steady state of heavy traffic —
// cache hits — does near-zero work beyond one scan of the request body:
//
//   - Sharded result cache. The LRU+singleflight cache is split across a
//     power-of-two number of shards selected by key bits, one shard per
//     core. Each shard owns its mutex, LRU list and counters, so
//     requests for distinct keys never serialise on one lock; SHA-256
//     keys spread uniformly by construction. Per shard the semantics are
//     exactly the single-shard implementation, which stays in the
//     package as a property-test oracle: randomized concurrent
//     Get/Do/evict traffic must observe identical
//     hit/miss/collapse/eviction behaviour on both, and the aggregate
//     counters obey hits+misses+collapsed = calls.
//   - Single-scan request decoding. The body is read once into a fresh
//     buffer, and a small reader walks it once, straight into the
//     pooled wire structs, calling strconv once per number token. It
//     accepts, rejects and decodes exactly as the strict json.Decoder
//     it replaced, which the tests keep as its differential oracle and
//     fuzz against; only a key or string holding an escape or a
//     non-ASCII byte still goes through encoding/json.
//   - Pooled decode, hashing and render. Requests decode into pooled
//     wire structs whose float slices are reused across requests;
//     canonical hashing leases a pooled SHA-256 state and digests the
//     raw wire numbers, so no pipeline/platform object is built just to
//     ask the cache; responses render once through a pooled buffer and
//     are cached as finished bytes (trailing newline included) with an
//     exact Content-Length — a hit is one cache lookup and one Write.
//     Domain objects, evaluators and the solve itself exist only on the
//     miss path. Error bodies render through the same pooled path,
//     byte-identical to encoding/json (pinned by tests).
//   - One metrics record per endpoint. Each endpoint records into one
//     mutex-guarded record of counters, moment sums and a 256-sample
//     ring of recent latencies; GET /metrics copies it and computes
//     mean/min/max/stddev plus p50/p95/p99 outside the lock. Recording a
//     request takes the lock once — no map, no allocation.
//
// BENCH_4 → BENCH_5 on the same Xeon 2.10GHz (serving baselines measured
// on the PR-4 code with the same new end-to-end benchmarks): a cache-hit
// /v1/solve drops from 20.4µs and 80 allocs to ~12µs and 16 allocs (5×
// fewer allocations), cache-hit sweeps identically, and misses shed the
// old per-request canonicalizer and encoder overhead on top of the
// solve. The allocation budget is pinned by an AllocsPerRun regression
// test (cap 24 per cache-hit solve). Under RunParallel hit traffic the
// sharded cache overtakes the legacy single mutex as GOMAXPROCS grows
// (benchmarks in internal/service/cache, run with -cpu 1,4,8: Do-hit
// 66.8ns legacy vs 45.0ns sharded at -cpu 8; at GOMAXPROCS=1 — the
// committed BENCH_5.json snapshot — one shard is selected and only the
// router's few-ns overhead shows, there being nothing to parallelise).
//
// # Performance: the raw-speed floor
//
// Below the serving layer, each solve runs on one schedule, pinned
// bit-identical to a reference oracle the tests keep:
//
//   - One DP fill. The compressed DP fills its table serially, state by
//     state in ascending id order, on a pooled arena; every latency run
//     goes through one kernel (cutRow), which prunes every cell that can
//     no longer finish within its cut (+Inf for an uncut fill). Tight
//     period bounds precompute, per (class, end), the first feasible
//     interval start, and the inner loops skip the infeasible prefix.
//     exact.ReadStats (and the /metrics Solver section) counts the
//     fills, probes included.
//   - One race lane. The portfolio race runs its members one after the
//     other on the calling goroutine — the cheap splitter first, then
//     the DP, then the rest — against one incumbent, and every member
//     aborts once its running bound proves it cannot be selected. The
//     race is pinned bit-identical to an oracle that runs every member
//     to completion, with an AllocsPerRun cap.
//   - One batch lane. portfolio.SolveBatch runs instances on the
//     calling goroutine, helped by idle solver-pool workers, and builds
//     evaluators per platform group: mapping.NewEvaluators shares one
//     platform's derived tables across the group. At decode time the
//     service gives an instance whose platform repeats the previous
//     instance's content the same object, so a batch sharing one
//     platform arrives pointer-shared; the repository benchmark's bulk
//     workload drives the lane end to end. ParetoSweep keeps its
//     per-heuristic lane fan-out above 2048 stage × processor cells.
//
// BENCH_8 → BENCH_9 on the snapshot machine: a cache-miss /v1/solve
// drops 83.6µs/90 allocs → 16.2µs/54, /v1/batch 65.5µs/252 allocs →
// ~35µs/23, and the portfolio race clears its 250µs target (~239µs).
//
// # Cluster serving: the peer-aware fleet
//
// internal/cluster scales the daemon horizontally. Started with
// -peers/-advertise (or a -peers-file), every canonical cache
// key gets an ordered replica set of -replicas owners (default 2),
// assigned by rendezvous hashing over the normalized peer list — no
// coordinator, no external store, and a membership change reassigns
// only the keys whose replica sets change. A local miss on a
// non-replica forwards the request to the first available replica
// (bounded by a forward timeout, loop-safe via a forward header); the
// replica's rendered bytes are relayed verbatim and installed locally
// as a second-tier hit, and the X-Cache header gains remote-hit,
// remote-miss, hedged-hit and fallback tiers.
//
// The failure semantics are explicit. Forwards are hedged: when the
// first replica has not answered within -hedge-after, the same forward
// races the next replica and the first usable response wins; the loser
// is cancelled, and cancellation never counts against its health. A
// failed attempt skips straight to the next replica. Peer health is
// capped exponential backoff with deterministic jitter — consecutive
// failures double the down window up to -peer-max-backoff, a completed
// exchange resets it, and consecutive 5xx responses mark a peer down
// just like transport failures. Only when every replica is down does
// the node fall back to a local solve: a dead or misbehaving peer is
// never a client-visible error, and with R>=2 a single death costs no
// cache coverage. Membership is dynamic: SIGHUP atomically swaps in the
// topology of the re-read -peers-file, and the node then runs one
// anti-entropy round (below) under it, pulling the keys it just became
// a replica for, so ownership changes keep warm state. Booting and
// joining nodes warm their cache the same way: the sync loop runs its
// first round at start — a cold node is already correct, warm-up only
// makes it fast sooner. Cache entries move between nodes through no
// other path (the entry codec is a bounded length-prefixed format
// fuzzed nightly, as are the peers-file parser and reload ownership
// agreement).
// Solvers are deterministic and responses are canonical rendered bytes,
// so a fleet answers byte-identically to a single node whichever member
// serves and whatever faults its peers suffer — pinned by an in-process
// fleet-and-chaos harness under the race detector and by
// scripts/cluster_e2e.sh (the cluster-e2e CI job), which drives a
// verified stream through seeded chaos, a peer kill, a rolling restart,
// a SIGHUP membership shrink and a membership-churn phase (stale-view
// disagreement, seed-list join, partition of the joiner), requiring
// zero client-visible errors in every phase.
//
// # Self-healing: join, anti-entropy, disagreement detection
//
// The fleet grows and converges without a shared peers file. Seed-list
// join: a node started with -join (plus -advertise, replacing
// -peers/-peers-file) bootstraps its member list from any reachable
// seed URL (GET /v1/peer/members), merges itself in and announces the
// grown view to every member (POST /v1/peer/join); peers that missed
// the announce learn of the joiner from the gossip loop, which every
// -gossip-interval (default 10s) pulls one live peer's member list and
// merges it. Membership views are epoch-stamped with deterministic
// merge rules: a higher epoch wins wholesale (a SIGHUP reload bumps the
// epoch, so operator removals propagate), equal epochs union (two
// concurrent joins commute to the same view on every node), and a node
// never adopts a view that excludes itself — a foreign fleet or a stale
// decommission list is refused, counted, and left visible as a
// disagreement rather than silently obeyed.
//
// Replica anti-entropy heals drift that no membership change announces:
// a node restarted empty, a healed partition, an eviction racing a
// forward. At start and every -sync-interval (default 30s; 0 disables
// both) each node pulls a bounded key digest from each live peer
// (GET /v1/peer/digest — the digest and membership codecs share the
// entry codec's bounded, fuzzed wire discipline) and fetches only the
// entries it replicates but does not hold (POST /v1/peer/fetch), at
// most cluster.MaxDigestKeys (1024) per digest and per fetch on every
// node. A replica set with zero client traffic converges digest-equal
// within one round per direction; a missed round costs freshness, never
// correctness, because an unsynced key simply misses and forwards or
// solves.
//
// Disagreement is detected, not inferred: every peer exchange carries
// the sender's membership stamp (X-Pipesched-Membership, epoch plus a
// hash of the member list) in both directions, and each side counts
// stamps differing from its own. A converged fleet shows identical
// membership_epoch/membership_hash everywhere and flat
// membership_mismatches; a stale node is visible from both sides within
// one exchange. An unreachable peer is a health event, not a
// disagreement (a partitioned node moves no mismatch counters on the
// survivors), and an unstamped exchange (an older build) is ignored.
// The /metrics cluster section exposes membership_epoch,
// membership_hash, membership_mismatches, memberships_rejected,
// membership_age_seconds, converged_for_seconds and the
// gossip_exchanges / gossip_merges / joins_served / sync_rounds /
// sync_pulled loop counters.
//
// internal/faultinject supplies the chaos: seeded, scriptable fault
// schedules (latency, drops, synthesized 5xx, time windows, flapping
// duty cycles, per-host targeting) applied as an http.RoundTripper or a
// reverse proxy; cmd/chaosproxy packages the proxy so a fleet's peer
// traffic can cross a schedule while clients reach daemons directly.
// Injected failures always carry the X-Fault-Injected marker.
//
// cmd/pipeschedbench is the matching load generator: a deterministic,
// Zipf-skewed, closed-loop solve stream with QPS / cache-tier /
// latency-percentile reporting and a -verify mode that byte-compares
// every fleet response against a reference daemon — the stream
// scripts/cluster_e2e.sh runs in every phase. The façade mirrors the
// surface for embedding: NewClusterTopology builds the validated fleet
// view and ServerOptions.Cluster (a ServerClusterConfig) opts an
// embedded Server into peer-aware serving.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison of every figure and table.
package pipesched
