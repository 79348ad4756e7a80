// Package loadgen is the engine of cmd/pipeschedbench: a deterministic,
// Zipf-skewed load generator for a pipeschedd fleet. It generates a
// fixed universe of solve instances from a seed, drives them closed-loop
// (each worker sends its next request when the last one completes)
// across one or more targets, and reports achieved QPS, the X-Cache
// hit-tier breakdown and latency percentiles. An optional verify target
// replays every response against a reference daemon and counts byte
// mismatches — the fleet-vs-single-node bit-identity check the cluster
// drill runs.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pipesched/internal/workload"
)

// Config parameterises one load-generation run. Zero values select the
// documented defaults; Targets is the only required field.
type Config struct {
	// Targets are the base URLs the request stream round-robins over.
	Targets []string
	// VerifyTarget, when set, receives every request a second time; the
	// two response bodies must match byte for byte (solvers are
	// deterministic, so any divergence is a bug). Mismatches are counted
	// in the report.
	VerifyTarget string
	// Workers is the number of concurrent request loops (default 16).
	Workers int
	// Requests caps the run at an exact request count; with a fixed Seed
	// this makes the whole key sequence deterministic. 0 means run for
	// Duration instead.
	Requests int
	// Duration bounds the run when Requests is 0 (default 10s).
	Duration time.Duration
	// Keys is the number of distinct instances in the universe (default
	// 256); requests draw from it with Zipf skew, so a handful of hot
	// keys dominate like real repeat traffic does.
	Keys int
	// ZipfS and ZipfV are the Zipf skew parameters (defaults 1.1 and 1;
	// s must be > 1 and v >= 1).
	ZipfS, ZipfV float64
	// Seed makes the instance universe and the key sequence reproducible
	// (default 1).
	Seed int64
	// Family, Stages and Processors shape the generated instances
	// (defaults E1, 8, 8).
	Family             workload.Family
	Stages, Processors int
	// Objective is the solve objective ("" = min-latency).
	Objective string
	// Bound is the solve bound (default 1e6: loose enough that every
	// instance is feasible, so the stream measures serving, not
	// infeasibility handling).
	Bound float64
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
}

func (c *Config) setDefaults() error {
	if len(c.Targets) == 0 {
		return fmt.Errorf("loadgen: no targets")
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Requests < 0 {
		return fmt.Errorf("loadgen: negative request count")
	}
	if c.Requests == 0 && c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = 256
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.ZipfV == 0 {
		c.ZipfV = 1
	}
	if c.ZipfS <= 1 || c.ZipfV < 1 {
		return fmt.Errorf("loadgen: zipf wants s > 1 and v >= 1 (got s=%g v=%g)", c.ZipfS, c.ZipfV)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Family == 0 {
		c.Family = workload.E1
	}
	if c.Stages <= 0 {
		c.Stages = 8
	}
	if c.Processors <= 0 {
		c.Processors = 8
	}
	if c.Bound == 0 {
		c.Bound = 1e6
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return nil
}

// LatencySummary is the latency tail of one run, in milliseconds.
type LatencySummary struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Report is the outcome of one run.
type Report struct {
	Targets        int            `json:"targets"`
	Sent           int            `json:"sent"`
	Errors         int            `json:"errors"`     // transport failures + non-200 statuses
	Mismatches     int            `json:"mismatches"` // verify-target body divergences
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	QPS            float64        `json:"qps"`
	Tiers          map[string]int `json:"tiers"`    // X-Cache tier -> count (200s only)
	Statuses       map[string]int `json:"statuses"` // HTTP status -> count
	Latency        LatencySummary `json:"latency"`
}

// workerState accumulates one worker's tallies, merged after the run so
// the hot loop never shares a counter.
type workerState struct {
	sent, errors, mismatches int
	tiers                    map[string]int
	statuses                 map[string]int
	latencies                []time.Duration
}

// Run executes one load-generation run and returns its report. The
// request stream is deterministic given the config (single generator
// goroutine, seeded Zipf, round-robin target choice); only the
// interleaving across workers varies.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	bodies, err := buildBodies(cfg)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: cfg.Timeout, Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.Workers + 1,
		IdleConnTimeout:     90 * time.Second,
	}}

	runCtx := ctx
	var cancel context.CancelFunc
	if cfg.Requests == 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// The generator owns all randomness: one seeded Zipf draw and one
	// round-robin counter per admission, so the multiset of keys (and,
	// with Requests set, the exact sequence) is reproducible.
	type job struct{ key, target int }
	jobs := make(chan job, cfg.Workers)
	go func() {
		defer close(jobs)
		zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.Seed)), cfg.ZipfS, cfg.ZipfV, uint64(len(bodies)-1))
		for i := 0; cfg.Requests == 0 || i < cfg.Requests; i++ {
			j := job{key: int(zipf.Uint64()), target: i % len(cfg.Targets)}
			select {
			case jobs <- j:
			case <-runCtx.Done():
				return
			}
		}
	}()

	states := make([]*workerState, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		st := &workerState{tiers: map[string]int{}, statuses: map[string]int{}}
		states[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				body := bodies[j.key]
				t0 := time.Now()
				status, tier, respBody, err := post(runCtx, client, cfg.Targets[j.target], body)
				st.latencies = append(st.latencies, time.Since(t0))
				st.sent++
				if err != nil {
					st.errors++
					st.statuses["transport-error"]++
					continue
				}
				st.statuses[strconv.Itoa(status)]++
				if status != http.StatusOK {
					st.errors++
					continue
				}
				if tier != "" {
					st.tiers[tier]++
				}
				if cfg.VerifyTarget != "" {
					_, _, refBody, err := post(runCtx, client, cfg.VerifyTarget, body)
					if err != nil || !bytes.Equal(respBody, refBody) {
						st.mismatches++
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Targets:        len(cfg.Targets),
		ElapsedSeconds: elapsed.Seconds(),
		Tiers:          map[string]int{},
		Statuses:       map[string]int{},
	}
	var all []time.Duration
	for _, st := range states {
		rep.Sent += st.sent
		rep.Errors += st.errors
		rep.Mismatches += st.mismatches
		for k, v := range st.tiers {
			rep.Tiers[k] += v
		}
		for k, v := range st.statuses {
			rep.Statuses[k] += v
		}
		all = append(all, st.latencies...)
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Sent) / elapsed.Seconds()
	}
	rep.Latency = summarize(all)
	return rep, nil
}

// buildBodies renders the instance universe once: request i is the
// marshalled solve body of the seeded instance i, so every run with the
// same config replays byte-identical requests.
func buildBodies(cfg Config) ([][]byte, error) {
	bodies := make([][]byte, cfg.Keys)
	for i := range bodies {
		in := workload.Generate(workload.Config{
			Family:     cfg.Family,
			Stages:     cfg.Stages,
			Processors: cfg.Processors,
			Seed:       cfg.Seed + int64(i),
		})
		req := map[string]any{
			"pipeline": in.App,
			"platform": in.Plat,
			"bound":    cfg.Bound,
		}
		if cfg.Objective != "" {
			req["objective"] = cfg.Objective
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshal instance %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// post issues one solve request to target and returns status, X-Cache
// tier and the body.
func post(ctx context.Context, client *http.Client, target string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, nil
}

// summarize computes the latency tail of one run.
func summarize(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	at := func(q float64) time.Duration {
		// Nearest-rank, matching the service's own quantile convention.
		idx := int(math.Ceil(q*float64(len(lat)))) - 1
		if idx < 0 {
			idx = 0
		}
		return lat[idx]
	}
	return LatencySummary{
		MeanMS: ms(sum) / float64(len(lat)),
		P50MS:  ms(at(0.50)),
		P90MS:  ms(at(0.90)),
		P95MS:  ms(at(0.95)),
		P99MS:  ms(at(0.99)),
		MaxMS:  ms(lat[len(lat)-1]),
	}
}
