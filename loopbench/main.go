// Command loopbench is the repository benchmark. It launches pipeschedd
// on loopback (one node, or a three-node fleet), drives one named
// workload of the paper's instances at it from this single process over
// at most nproc connections, checks every answer, and prints the
// end-to-end metrics by name and unit. With -trace 1 it instead runs
// the same phase, then the phase again with client spans recorded, and
// replays a sample of its requests through each layer's public
// functions in process; it then prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.28, "unit": "ms"}, ...}}
//
// The exit status is 1 when any answer was wrong or failed, and when
// the benchmark could not run at all (then no result line is printed).
//
// Usage, from the repository root (loopbench/run.sh builds the daemon
// and this command first):
//
//	loopbench --workload solve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pipesched/internal/service"
)

// workloadSpec describes one named workload.
type workloadSpec struct {
	name  string
	nodes int
	// rate is the open-loop arrival rate per second; 0 selects a
	// closed loop of one client per connection.
	rate float64
	// perSecond bounds how many requests a closed loop can use per
	// measured second; the stream is generated that long.
	perSecond int
	// prime sends every key of the universe once during set-up.
	prime bool
	// sample is how many of the measured requests a traced run
	// replays in process.
	sample int
	// setups is how many times a run sets the daemons up; setup_s is
	// the median, and the last set-up serves the measured phase.
	setups int
	build  func(r *rand.Rand, size int) stream
}

var workloads = []workloadSpec{
	{
		name: "solve-hot", nodes: 1, rate: 2000, prime: true, sample: 64, setups: 3,
		build: func(r *rand.Rand, size int) stream {
			return keyedStream(r, hotUniverse(r), len(paperShapes()), size, 1.1)
		},
	},
	{
		name: "solve-cold", nodes: 1, perSecond: 600, sample: 48, setups: 9,
		build: coldStream,
	},
	{
		name: "bulk", nodes: 1, perSecond: 320, sample: 16, setups: 9,
		build: bulkStream,
	},
	{
		// A fleet's set-up waits out the back-off its first nodes
		// start with (their boot warm-up finds later peers refusing
		// connections), seconds per set-up.
		name: "fleet", nodes: 3, rate: 1500, sample: 64, setups: 1,
		build: func(r *rand.Rand, size int) stream {
			return keyedStream(r, fleetUniverse(r), len(fleetShapes()), size, 1.1)
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with injectable streams, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: solve-hot, solve-cold, bulk or fleet")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		daemon  = fs.String("daemon", filepath.Join(".bench_build", "pipeschedd"), "pipeschedd binary")
		spanDir = fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the spans of a traced run are written to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "loopbench: usage: --workload {solve-hot|solve-cold|bulk|fleet} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		w:       w,
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		daemon:  *daemon,
		spanDir: *spanDir,
		conns:   runtime.NumCPU(),
	}
	res, err := bench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "loopbench: %v\n", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "loopbench: FAIL %v\n", f)
	}
	line, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintf(stderr, "loopbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.line.Correct {
		return 1
	}
	return 0
}

type config struct {
	w       workloadSpec
	seed    int64
	dur     time.Duration
	trace   bool
	daemon  string
	spanDir string
	conns   int
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	line     resultLine
	failures []error
}

// observation is the outside-in state read around a measured phase.
type observation struct {
	snaps []service.MetricsSnapshot
	cpu   time.Duration
	hwmKB int64
	host  cpuTimes
}

func observe(ctx context.Context, d *driver, c *daemons) (observation, error) {
	snaps, err := scrapeAll(ctx, d.hc, c)
	if err != nil {
		return observation{}, err
	}
	cpu, hwm, err := clusterStat(c)
	if err != nil {
		return observation{}, err
	}
	host, err := readCPUTimes()
	if err != nil {
		return observation{}, err
	}
	return observation{snaps: snaps, cpu: cpu, hwmKB: hwm, host: host}, nil
}

// setUp launches the workload's daemons and waits until they are ready
// for the measured phase: listening, every key primed, the fleet
// converged. It returns the priming answers for the oracle.
func setUp(ctx context.Context, cfg config, st stream) (*daemons, *driver, []answer, error) {
	c, err := launch(cfg.daemon, cfg.w.nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	d := newDriver(c.urls(), cfg.conns)
	fail := func(err error) (*daemons, *driver, []answer, error) {
		d.close()
		return nil, nil, nil, errors.Join(err, c.stop())
	}
	for _, u := range c.urls() {
		if err := healthy(ctx, d.hc, u); err != nil {
			return fail(err)
		}
	}
	var primed []answer
	if cfg.w.prime {
		primed = d.sendAll(ctx, st.universe)
	}
	if cfg.w.nodes > 1 {
		cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		err := awaitConverged(cctx, d.hc, c)
		cancel()
		if err != nil {
			return fail(err)
		}
	}
	return c, d, primed, nil
}

// setUpRounds sets the daemons up cfg.w.setups times, timing each, and
// keeps the last set-up running for the measured phase.
func setUpRounds(ctx context.Context, cfg config, st stream) (c *daemons, d *driver, primed []answer, secs []float64, err error) {
	for i := range cfg.w.setups {
		t0 := time.Now()
		var p []answer
		c, d, p, err = setUp(ctx, cfg, st)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		primed = append(primed, p...)
		if i < cfg.w.setups-1 {
			d.close()
			if err := c.stop(); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("set-up: stopping daemons: %w", err)
			}
		}
	}
	return c, d, primed, secs, nil
}

func bench(ctx context.Context, cfg config, out io.Writer) (result, error) {
	phases := 1
	if cfg.trace {
		phases = 2
	}
	perPhase := int(float64(cfg.w.perSecond) * cfg.dur.Seconds())
	if cfg.w.rate > 0 {
		perPhase = int(cfg.w.rate * cfg.dur.Seconds())
	}
	t0 := time.Now()
	st := cfg.w.build(rand.New(rand.NewSource(cfg.seed)), max(perPhase, 1)*phases)
	genTime := time.Since(t0)

	c, d, primed, setups, err := setUpRounds(ctx, cfg, st)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	stopped := false
	defer func() {
		if !stopped {
			_ = c.stop()
		}
	}()
	before, err := observe(ctx, d, c)
	if err != nil {
		return result{}, err
	}
	pa := runPhase(ctx, cfg, d, st, 0, nil)
	if cfg.w.rate == 0 && pa.elapsed < cfg.dur {
		fmt.Fprintf(os.Stderr, "loopbench: warning: the %d generated requests lasted only %s of the phase\n", perPhase, pa.elapsed)
	}
	after, err := observe(ctx, d, c)
	if err != nil {
		return result{}, err
	}
	// failures collects every failed check that is not an answer's
	// verdict: traced answers that differ from the daemon's, the
	// simulator cross-check and an unclean daemon exit.
	var (
		failures []error
		pb       phaseResult
		tr       *tracer
	)
	if cfg.trace {
		pb, tr, failures = tracedRun(ctx, cfg, d, c, st, pa)
	}
	stopped = true
	if err := c.stop(); err != nil {
		failures = append(failures, fmt.Errorf("daemon exit: %w", err))
	}

	// Check every answer, off the clock.
	all := append(append(append([]answer(nil), primed...), pa.answers...), pb.answers...)
	unsent := pa.unsent + pb.unsent
	t0 = time.Now()
	verdicts := newOracle().checkAll(all, cfg.conns)
	va := verdicts[len(primed) : len(primed)+len(pa.answers)]

	rec := record(cfg, len(primed), pa, pb, setups)
	rec["generate_s"], rec["check_s"] = genTime.Seconds(), time.Since(t0).Seconds()
	rec["steal_ratio"] = stealRatio(before, after)
	lat := latenciesMS(pa.answers)
	p99 := quantile(lat, 0.99)
	rec["samples"], rec["beyond_p99"] = len(lat), countAbove(lat, p99)
	rec["digest"], rec["digest_answers"] = digest(pa.answers, 256)
	var metrics map[string]metricValue
	if cfg.trace {
		n, err := validateSample(va, 16)
		rec["sim_validated"] = n
		if err != nil {
			failures = append(failures, fmt.Errorf("simulator cross-check: %w", err))
		}
		tr.summary(out)
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		rec["spans_file"] = path
		metrics = layerMetrics(pa, pb, va, before, after, tr)
	} else {
		metrics = endToEnd(pa, va, before, after, setups)
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "loopbench: record %s\n", recLine)
	fmt.Fprintf(out, "loopbench: %s whole phase: p50 %.4f ms, p99 %.4f ms over %d samples (%d beyond p99)\n",
		cfg.w.name, quantile(lat, 0.5), p99, len(lat), countAbove(lat, p99))

	failed := unsent + len(failures)
	if unsent > 0 {
		failures = append(failures, fmt.Errorf("%d open-loop requests still unsent %s after their slot", unsent, drainLimit))
	}
	for i, v := range verdicts {
		if v.err != nil {
			failed++
			if len(failures) < 20 {
				failures = append(failures, fmt.Errorf("request %d (%s): %w", all[i].req.id, all[i].req.path, v.err))
			}
		}
	}
	return result{
		line: resultLine{
			Correct:   failed == 0,
			Attempted: len(all) + unsent,
			Failed:    failed,
			Metrics:   metrics,
		},
		failures: failures,
	}, nil
}

// tracedRun runs the measured phase again with client spans recorded,
// then replays a sample of the first phase's requests through each
// layer's public functions, after the loopback traffic has stopped.
func tracedRun(ctx context.Context, cfg config, d *driver, c *daemons, st stream, pa phaseResult) (phaseResult, *tracer, []error) {
	tr := newTracer()
	spans := make([][]span, cfg.conns)
	sink := func(w int, a *answer, start time.Time) {
		off := start.Sub(tr.t0)
		spans[w] = append(spans[w], span{Req: a.req.id, Name: spRequest, Start: int64(off + a.sent), End: int64(off + a.done),
			Calls: 1, Failed: a.err != nil || a.status >= 500})
	}
	pb := runPhase(ctx, cfg, d, st, len(pa.answers)+pa.unsent, sink)
	for _, s := range spans {
		for _, sp := range s {
			tr.add(sp)
		}
	}
	served := make(map[int]*answer, len(pa.answers))
	keys := make([]*request, len(pa.answers))
	for i := range pa.answers {
		served[pa.answers[i].req.id] = &pa.answers[i]
		keys[i] = pa.answers[i].req
	}
	sample := distinctSample(pa.answers, cfg.w.sample)
	failures := tr.traceLayers(sample, served)
	tr.traceKeyStream(keys, fleetPeers(c))
	failures = append(failures, tr.traceForward(ctx, c.urls(), sample, served)...)
	return pb, tr, failures
}

func runPhase(ctx context.Context, cfg config, d *driver, st stream, first int, sink spanSink) phaseResult {
	avail := st.size - first
	if cfg.w.rate > 0 {
		return d.runOpen(ctx, st.at, first, avail, cfg.w.rate, cfg.dur, sink)
	}
	return d.runClosed(ctx, st.at, first, avail, cfg.dur, sink)
}

// distinctSample returns the first n requests of answers with distinct
// keys, so each is a miss for a fresh in-process server.
func distinctSample(answers []answer, n int) []*request {
	seen := map[int]bool{}
	var out []*request
	for i := range answers {
		r := answers[i].req
		if len(out) == n {
			break
		}
		if !seen[r.key] {
			seen[r.key] = true
			out = append(out, r)
		}
	}
	return out
}

// fleetPeers is the peer list the routing layer is timed on: the
// fleet's own, or a three-node loopback list around a single node.
func fleetPeers(c *daemons) []string {
	urls := c.urls()
	if len(urls) > 1 {
		return urls
	}
	return []string{urls[0], "http://127.0.0.1:1", "http://127.0.0.1:2"}
}

// record describes the run: host, toolchain, seed and request counts.
func record(cfg config, primed int, pa, pb phaseResult, setups []float64) map[string]any {
	rec := map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.dur.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"setup_s":    setups,
		"requests": map[string]int{
			"primed":       primed,
			"measured":     len(pa.answers),
			"traced_phase": len(pb.answers),
			"unsent":       pa.unsent + pb.unsent,
		},
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func latenciesMS(answers []answer) []float64 {
	out := make([]float64, len(answers))
	for i := range answers {
		out[i] = float64(answers[i].latency()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func countAbove(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
