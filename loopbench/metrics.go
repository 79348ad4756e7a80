package main

import (
	"sort"
	"strings"
	"time"

	"pipesched/internal/service"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndDefs are the metrics of an untraced run, as a user of the
// daemon sees them.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"success_ratio", "ratio"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MB"},
}

var heuristicIDs = []string{"H1", "H2", "H3", "H4", "H5", "H6"}

// layerDefs are the metrics of a traced run, grouped by module. Every
// traced run prints all of them; one that does not apply to the
// workload reads 0 (layers.json says where each applies).
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"service.solve_mean_ms", "ms"},
		{"service.sweep_mean_ms", "ms"},
		{"service.batch_mean_ms", "ms"},
		{"service.outside_share", "ratio"},
		{"service.errors", "count"},
		{"service.serve_hit_us", "us"},
		{"service.serve_miss_self_us", "us"},
		{"cache.hit_ratio", "ratio"},
		{"cache.collapsed", "count"},
		{"cache.evictions", "count"},
		{"cache.get_ns", "ns"},
		{"mapping.intern_hit_ratio", "ratio"},
		{"mapping.evaluator_us", "us"},
		{"portfolio.race_us", "us"},
		{"portfolio.race_p99_us", "us"},
		{"portfolio.sweep_ms", "ms"},
		{"portfolio.batch_ms", "ms"},
		{"portfolio.race_over_members", "ratio"},
		{"portfolio.infeasible_ratio", "ratio"},
		{"portfolio.win.DP", "ratio"},
	}
	for _, h := range heuristicIDs {
		defs = append(defs, metricDef{"portfolio.win." + h, "ratio"})
	}
	for _, h := range heuristicIDs {
		defs = append(defs, metricDef{"heuristics." + h + "_us", "us"})
	}
	return append(defs,
		metricDef{"heuristics.fail_ratio", "ratio"},
		metricDef{"exact.serial_runs", "count"},
		metricDef{"exact.parallel_runs", "count"},
		metricDef{"exact.memo_hits", "count"},
		metricDef{"exact.under_period_us", "us"},
		metricDef{"exact.under_latency_us", "us"},
		metricDef{"exact.under_latency_p99_us", "us"},
		metricDef{"cluster.forwarded", "count"},
		metricDef{"cluster.remote_hit_ratio", "ratio"},
		metricDef{"cluster.fallbacks", "count"},
		metricDef{"cluster.hedged_hits", "count"},
		metricDef{"cluster.peers_down_max", "count"},
		metricDef{"cluster.membership_mismatches", "count"},
		metricDef{"cluster.forward_us", "us"},
		metricDef{"cluster.owners_ns", "ns"},
		metricDef{"bench.gen_late_p99_ms", "ms"},
		metricDef{"bench.steal_ratio", "ratio"},
		metricDef{"bench.trace_overhead_ratio", "ratio"},
	)
}()

// fill turns named values into the printed metric set of defs.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// correctCount counts the answers whose verdict holds no error.
func correctCount(vs []verdict) int {
	n := 0
	for _, v := range vs {
		if v.err == nil {
			n++
		}
	}
	return n
}

// maxWindows and minWindow split a measured phase for its latency
// percentiles: up to five consecutive windows of at least 1000 answers,
// so each window's p99 has at least ten samples beyond it.
const (
	maxWindows = 5
	minWindow  = 1000
)

// windowedQuantile is the median, over consecutive windows of the
// phase in send order, of each window's q-quantile latency in ms. A
// stall that hits one window moves one of five values, not the result.
func windowedQuantile(answers []answer, q float64) float64 {
	k := min(maxWindows, max(1, len(answers)/minWindow))
	vals := make([]float64, k)
	for w := range vals {
		vals[w] = quantile(latenciesMS(answers[w*len(answers)/k:(w+1)*len(answers)/k]), q)
	}
	return median(vals)
}

func endToEnd(pa phaseResult, va []verdict, before, after observation, setups []float64) map[string]metricValue {
	correct := float64(correctCount(va))
	return fill(endToEndDefs, map[string]float64{
		"setup_s":        median(setups),
		"p50_ms":         windowedQuantile(pa.answers, 0.5),
		"p99_ms":         windowedQuantile(pa.answers, 0.99),
		"throughput_rps": correct / pa.elapsed.Seconds(),
		"success_ratio":  ratio(correct, float64(len(pa.answers)+pa.unsent)),
		"cpu_ms_per_req": ratio(float64(after.cpu-before.cpu)/float64(time.Millisecond), float64(len(pa.answers))),
		"rss_mb":         float64(after.hwmKB) / 1024,
	})
}

// endpointDelta sums, over nodes, one endpoint's request count and
// handler time during the phase. Handler time comes from the moment sum
// (mean × count), which covers every request; the scrape's percentiles
// cover only the most recent ones.
func endpointDelta(before, after []service.MetricsSnapshot, name string) (n, sumMS, errs float64) {
	for i := range after {
		a, b := after[i].Endpoints[name], before[i].Endpoints[name]
		n += float64(a.Requests) - float64(b.Requests)
		sumMS += a.MeanMS*float64(a.Requests) - b.MeanMS*float64(b.Requests)
		errs += float64(a.Errors) - float64(b.Errors)
	}
	return n, sumMS, errs
}

func layerMetrics(pa, pb phaseResult, va []verdict, before, after observation, tr *tracer) map[string]metricValue {
	v := map[string]float64{}
	b, a := before.snaps, after.snaps

	// internal/service, outside in.
	var handlerMS, errs float64
	for _, ep := range []string{"solve", "sweep", "batch"} {
		n, sum, e := endpointDelta(b, a, ep)
		v["service."+ep+"_mean_ms"] = ratio(sum, n)
		handlerMS += sum
		errs += e
	}
	var clientMS float64
	for i := range pa.answers {
		clientMS += float64(pa.answers[i].done-pa.answers[i].sent) / 1e6
	}
	v["service.outside_share"] = 1 - ratio(handlerMS, clientMS)
	v["service.errors"] = errs

	// internal/service/cache, internal/mapping, internal/exact and
	// internal/cluster counters, summed over nodes.
	var hits, misses, collapsed, evictions, iHits, iMiss, serial, par, memo float64
	var fwd, remoteHits, fallbacks, hedged, mismatches, downMax float64
	for i := range a {
		ca, cb := a[i].Cache, b[i].Cache
		hits += float64(ca.Hits - cb.Hits)
		misses += float64(ca.Misses - cb.Misses)
		collapsed += float64(ca.Collapsed - cb.Collapsed)
		evictions += float64(ca.Evictions - cb.Evictions)
		sa, sb := a[i].Solver, b[i].Solver
		iHits += float64(sa.InternHits - sb.InternHits)
		iMiss += float64(sa.InternMisses - sb.InternMisses)
		serial += float64(sa.DP.SerialRuns - sb.DP.SerialRuns)
		par += float64(sa.DP.ParallelRuns - sb.DP.ParallelRuns)
		memo += float64(sa.DP.MemoHits - sb.DP.MemoHits)
		if cla, clb := a[i].Cluster, b[i].Cluster; cla != nil && clb != nil {
			fwd += float64(cla.Forwarded - clb.Forwarded)
			remoteHits += float64(cla.RemoteHits - clb.RemoteHits)
			fallbacks += float64(cla.Fallbacks - clb.Fallbacks)
			hedged += float64(cla.HedgedHits - clb.HedgedHits)
			mismatches += float64(cla.MembershipMismatches - clb.MembershipMismatches)
			downMax = max(downMax, float64(cla.PeersDown), float64(clb.PeersDown))
		}
	}
	v["cache.hit_ratio"] = ratio(hits, hits+misses+collapsed)
	v["cache.collapsed"] = collapsed
	v["cache.evictions"] = evictions
	v["mapping.intern_hit_ratio"] = ratio(iHits, iHits+iMiss)
	v["exact.serial_runs"] = serial
	v["exact.parallel_runs"] = par
	v["exact.memo_hits"] = memo
	v["cluster.forwarded"] = fwd
	v["cluster.remote_hit_ratio"] = ratio(remoteHits, fwd)
	v["cluster.fallbacks"] = fallbacks
	v["cluster.hedged_hits"] = hedged
	v["cluster.peers_down_max"] = downMax
	v["cluster.membership_mismatches"] = mismatches

	// internal/portfolio, from the answers themselves.
	var elements, infeasible float64
	wins := map[string]float64{}
	var solved float64
	for _, vd := range va {
		elements += float64(vd.out.elements)
		infeasible += float64(vd.out.infeasible)
		for _, s := range vd.out.solvers {
			wins[s]++
			solved++
		}
	}
	v["portfolio.infeasible_ratio"] = ratio(infeasible, elements)
	for _, id := range append([]string{"DP"}, heuristicIDs...) {
		v["portfolio.win."+id] = ratio(wins[id], solved)
	}

	// Traced layer timings.
	v["service.serve_hit_us"] = median(tr.durations(spServe, "hit"))
	v["service.serve_miss_self_us"] = median(tr.selfOf(spServe, "miss"))
	v["mapping.evaluator_us"] = median(tr.durations(spEvaluator, ""))
	races := append(tr.durations(spUnderP, ""), tr.durations(spUnderL, "")...)
	sort.Float64s(races)
	v["portfolio.race_us"] = median(races)
	v["portfolio.race_p99_us"] = quantile(races, 0.99)
	v["portfolio.sweep_ms"] = median(tr.durations(spSweep, "")) / 1e3
	v["portfolio.batch_ms"] = median(tr.durations(spBatch, "")) / 1e3
	v["portfolio.race_over_members"] = tr.raceOverMembers()
	var hRuns, hFails float64
	for _, id := range heuristicIDs {
		v["heuristics."+id+"_us"] = median(tr.durations(heurPrefix+id, ""))
	}
	for i := range tr.spans {
		if s := &tr.spans[i]; strings.HasPrefix(s.Name, heurPrefix) {
			hRuns++
			if s.Failed {
				hFails++
			}
		}
	}
	v["heuristics.fail_ratio"] = ratio(hFails, hRuns)
	v["exact.under_period_us"] = median(tr.durations(spExactUnder, ""))
	lats := tr.durations(spExactLat, "")
	v["exact.under_latency_us"] = median(lats)
	v["exact.under_latency_p99_us"] = quantile(lats, 0.99)
	v["cluster.forward_us"] = median(tr.durations(spForward, ""))
	v["cache.get_ns"] = median(tr.durations(spCacheGet, "")) * 1e3
	v["cluster.owners_ns"] = median(tr.durations(spOwners, "")) * 1e3

	// Harness: numbers that come from the host or the benchmark itself.
	var late []float64
	for i := range pa.answers {
		late = append(late, float64(pa.answers[i].sent-pa.answers[i].due)/1e6)
	}
	sort.Float64s(late)
	v["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	v["bench.steal_ratio"] = stealRatio(before, after)
	v["bench.trace_overhead_ratio"] = ratio(quantile(latenciesMS(pb.answers), 0.5), quantile(latenciesMS(pa.answers), 0.5))
	return fill(layerDefs, v)
}

// raceOverMembers is the total race time over the total time of the
// same races' members each run alone.
func (t *tracer) raceOverMembers() float64 {
	var race, members time.Duration
	isRace := make(map[int]bool)
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == spUnderP || s.Name == spUnderL {
			isRace[s.ID] = true
			race += s.dur()
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; isRace[s.Parent] {
			members += s.dur()
		}
	}
	return ratio(float64(race), float64(members))
}

// stealRatio is the host's CPU steal over its non-idle time during the
// phase: time this machine's hypervisor gave to other guests.
func stealRatio(before, after observation) float64 {
	return ratio(float64(after.host.steal-before.host.steal), float64(after.host.busy-before.host.busy))
}
