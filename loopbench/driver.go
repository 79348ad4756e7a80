package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// answer is one request's outcome as the client saw it. Times are
// offsets from the phase start.
type answer struct {
	req    *request
	due    time.Duration // open loop: scheduled send time; closed loop: actual send
	sent   time.Duration
	done   time.Duration
	status int
	body   []byte
	err    error
}

// latency is the client-visible time: from the scheduled send in an
// open loop, so a stall also delays the requests queued behind it.
func (a *answer) latency() time.Duration { return a.done - a.due }

// phaseResult is one measured phase.
type phaseResult struct {
	answers []answer // in request order
	elapsed time.Duration
	unsent  int // open-loop slots still unsent when the drain limit hit
}

// drainLimit bounds how long an open loop keeps sending its backlog
// after the last slot fell due; slots still unsent then are failures.
const drainLimit = 30 * time.Second

// driver sends a workload's requests from one process over at most
// conns concurrent connections.
type driver struct {
	hc    *http.Client
	urls  []string
	conns int
}

func newDriver(urls []string, conns int) *driver {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &driver{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, urls: urls, conns: conns}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

// send posts r to a node, round-robin by request id, and reads the
// reply.
func (d *driver) send(ctx context.Context, r *request, a *answer) {
	a.req = r
	url := d.urls[r.id%len(d.urls)] + r.path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		a.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		a.err = err
		return
	}
	defer resp.Body.Close()
	a.status = resp.StatusCode
	a.body, a.err = io.ReadAll(resp.Body)
}

// spanSink receives one client span per request when a phase is traced.
type spanSink func(worker int, a *answer, start time.Time)

// runOpen sends requests from at(first) on at a fixed rate for dur.
// Each request is due at first-send + i/rate; a worker that falls behind
// sends late and the lateness counts in latency. After the last slot no
// new request is admitted and every due one is sent and drained.
func (d *driver) runOpen(ctx context.Context, at func(int) *request, first, avail int, rate float64, dur time.Duration, sink spanSink) phaseResult {
	slots := min(int(rate*dur.Seconds()), avail)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now()
	per := make([][]answer, d.conns)
	var unsent atomic.Int64
	var wg sync.WaitGroup
	for w := range d.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= slots {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					pace(wait)
				}
				sent := time.Since(start)
				if sent > due+drainLimit {
					unsent.Add(1)
					continue
				}
				a := answer{due: due, sent: sent}
				d.send(ctx, at(first+i), &a)
				a.done = time.Since(start)
				if sink != nil {
					sink(w, &a, start)
				}
				per[w] = append(per[w], a)
			}
		}(w)
	}
	wg.Wait()
	return merge(per, time.Since(start), int(unsent.Load()))
}

// runClosed runs conns clients that each send their next request as
// soon as the previous one is answered, until dur has passed; requests
// in flight at that point are drained, not cancelled.
func (d *driver) runClosed(ctx context.Context, at func(int) *request, first, avail int, dur time.Duration, sink spanSink) phaseResult {
	var next atomic.Int64
	start := time.Now()
	per := make([][]answer, d.conns)
	var wg sync.WaitGroup
	for w := range d.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= avail {
					return
				}
				sent := time.Since(start)
				a := answer{due: sent, sent: sent}
				d.send(ctx, at(first+i), &a)
				a.done = time.Since(start)
				if sink != nil {
					sink(w, &a, start)
				}
				per[w] = append(per[w], a)
			}
		}(w)
	}
	wg.Wait()
	return merge(per, time.Since(start), 0)
}

// pace sleeps for d on the kernel's high-resolution timer. The Go
// runtime's timers wake up to a millisecond late on Linux, which an
// open loop would add to every request's latency.
func pace(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

func merge(per [][]answer, elapsed time.Duration, unsent int) phaseResult {
	var all []answer
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].req.id < all[j].req.id })
	return phaseResult{answers: all, elapsed: elapsed, unsent: unsent}
}

// sendAll sends every request of reqs once over the driver's
// connections, for set-up priming and checks outside a measured phase.
func (d *driver) sendAll(ctx context.Context, reqs []*request) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				a := &out[i]
				a.sent = time.Since(start)
				a.due = a.sent
				d.send(ctx, reqs[i], a)
				a.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}
