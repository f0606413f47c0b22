package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/serve"
)

// clients is the number of closed-loop clients of the service
// workload, and the daemon's worker count.
const clients = 2

// hitsPerMiss is how many repeat submissions of completed configs each
// client makes after each new one.
const hitsPerMiss = 9

// missCycle is the sequence of experiment kinds each client takes its
// new configs from, over and over; the second client starts half way
// through, so the two rarely compute heavy kinds at once. The counts
// place the 90th percentile of miss latency among the fig6 jobs, away
// from the cliffs between kinds of different cost; heavy kinds are
// spread out so that the jobs done before any deadline have nearly the
// cycle's mix.
var missCycle = []string{
	"fig6", "nautilus", "virtine", "paging", "nautilus",
	"blending", "fig6", "nautilus", "consistency", "carat",
	"riscv", "fig4", "fig6", "nautilus", "tasks",
	"paging", "nautilus", "pipeline", "fig6", "nautilus",
}

// runService serves the experiment service behind a loopback listener
// inside this process, with a memory-only result cache, and drives it
// with closed-loop HTTP clients.
func runService(b *bench) error {
	kinds := distinct(missCycle)
	var d *daemon
	for i := range setupReps {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		core.VersionSalt()
		// Warm-up: each kind once new, once again, over HTTP.
		c := newClient(d.base)
		for k, kind := range kinds {
			jc := jobConfig(kind, uint64(k+1))
			for range 2 {
				if _, err := c.job(jc); err != nil {
					return fmt.Errorf("warm-up %s: %w", kind, err)
				}
			}
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		c.close()
		if i < setupReps-1 {
			if err := d.close(); err != nil {
				return err
			}
		}
	}

	before, err := d.stats()
	if err != nil {
		return err
	}
	if err := b.startTimed(); err != nil {
		return err
	}
	deadline := time.Now().Add(b.seconds)
	res := make([]clientResult, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.serviceClient(d.base, i, deadline, &res[i])
		}()
	}
	wg.Wait()
	b.stopTimed()
	after, err := d.stats()
	if err != nil {
		return err
	}

	var misses []missJob
	var missMs, hitMs []float64
	for _, r := range res {
		misses = append(misses, r.misses...)
		missMs = append(missMs, r.missMs...)
		hitMs = append(hitMs, r.hitMs...)
	}
	b.extra["serve.miss_p90_ms"] = percentile(missMs, 90)
	b.extra["serve.hit_p50_ms"] = median(hitMs)
	b.extra["serve.misses"] = float64(len(missMs))
	b.extra["serve.hits"] = float64(len(hitMs))
	b.computed = len(misses)
	// Fold each new config's result digest in job-ID order: the two
	// clients finish their jobs in no fixed order.
	slices.SortFunc(misses, func(x, y missJob) int { return strings.Compare(x.id, y.id) })
	for _, m := range misses {
		done := m.events[len(m.events)-1]
		sum, err := strconv.ParseUint(done.Digest, 16, 64)
		if err != nil {
			return fmt.Errorf("job %s: digest %q: %w", m.id, done.Digest, err)
		}
		b.addDigest(sum, done.Tables)
	}

	// Counters from /v1/stats over the timed phase.
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	lookups := hits + float64(after.Cache.Misses-before.Cache.Misses)
	newJobs := after.Jobs[serve.StateDone] - before.Jobs[serve.StateDone]
	b.layer["cache.hit_ratio"] = metric{per(hits, lookups), "ratio"}
	b.layer["cache.computes_per_job"] = metric{
		float64(after.Cache.Computes-before.Cache.Computes) / float64(b.jobs), "count"}
	b.layer["serve.dedup_ratio"] = metric{1 - float64(newJobs)/float64(b.jobs), "ratio"}

	// No config is computed twice: each new config made exactly one
	// job, and its result was computed, not served from the cache.
	computed := 0
	for _, m := range misses {
		if m.source == cache.SourceComputed.String() {
			computed++
		}
	}
	if newJobs != len(misses) || computed != len(misses) {
		fmt.Fprintf(os.Stderr, "check: %d distinct configs submitted, %d jobs made, %d results computed\n",
			len(misses), newJobs, computed)
		b.correct = false
	}
	b.verifyDirect(misses)
	if err := d.close(); err != nil {
		return err
	}
	return b.finishTrace()
}

// verifyDirect checks, after the timed phase, that each new config's
// served bytes equal a direct core.Runner run with the cache off,
// rendered as interweave prints it.
func (b *bench) verifyDirect(misses []missJob) {
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := &core.Runner{Parallel: 1}
			for i := w; i < len(misses); i += clients {
				m := misses[i]
				start := time.Now()
				tables, _, err := runner.Run(context.Background(), m.cfg, nil)
				b.record("core.run", i, m.cfg.Experiment, "", start, time.Now())
				if err == nil {
					err = checkSameBytes(m.id, render(tables), m.body)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "check: %s seed %d against a direct run: %v\n",
						m.cfg.Experiment, m.cfg.Seed, err)
					b.fail(m.op, failCheck)
				}
			}
		}()
	}
	wg.Wait()
}

// missJob is a new config the service completed in the timed phase.
type missJob struct {
	op     *op
	id     string
	cfg    core.RunConfig
	body   []byte
	source string
	events []serve.Event
}

// clientResult is what one client measured.
type clientResult struct {
	misses        []missJob
	missMs, hitMs []float64
}

// serviceClient is one closed-loop client: rounds of one new config
// (a miss) and hitsPerMiss repeats of configs it already completed
// (hits), until the deadline.
func (b *bench) serviceClient(base string, idx int, deadline time.Time, res *clientResult) {
	c := newClient(base)
	defer c.close()
	rng := rand.New(rand.NewPCG(b.seed, uint64(idx)+1))
	seen := map[uint64]bool{}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		kind := missCycle[(round+idx*len(missCycle)/clients)%len(missCycle)]
		// Clients draw disjoint seeds (by parity), above the warm-up's.
		seed := 1<<20 + 2*rng.Uint64N(1<<40) + uint64(idx)
		for seen[seed] {
			seed = 1<<20 + 2*rng.Uint64N(1<<40) + uint64(idx)
		}
		seen[seed] = true
		jc := jobConfig(kind, seed)

		o := b.newOp()
		out, ok := b.serviceJob(c, o, jc, false, nil)
		if ok {
			res.misses = append(res.misses, missJob{o, out.id, jc.RunConfig(), out.body, out.source, out.events})
			res.missMs = append(res.missMs, ms(out.latency))
			b.recordJob(o.id, kind, out, true)
		}
		for range hitsPerMiss {
			if len(res.misses) == 0 {
				break
			}
			m := res.misses[rng.IntN(len(res.misses))]
			o := b.newOp()
			if out, ok := b.serviceJob(c, o, serve.WireConfig(m.cfg), true, m.body); ok {
				res.hitMs = append(res.hitMs, ms(out.latency))
				b.recordJob(o.id, m.cfg.Experiment, out, false)
			}
		}
	}
}

// serviceJob runs one request and checks it. A miss must be accepted
// as a new job and computed; a hit must coalesce onto the done job and
// serve the bytes first served for it. ok reports a completed job.
func (b *bench) serviceJob(c *client, o *op, jc serve.JobConfig, hit bool, first []byte) (out outcome, ok bool) {
	out, err := c.job(jc)
	switch {
	case errors.Is(err, errQueueFull):
		b.fail(o, fail429)
		return out, false
	case err != nil:
		fmt.Fprintf(os.Stderr, "error: %s seed %d: %v\n", jc.Experiment, *jc.Seed, err)
		b.fail(o, failError)
		return out, false
	}
	b.mu.Lock()
	b.jobs++
	b.mu.Unlock()
	switch {
	case !hit && (out.status != http.StatusAccepted || out.dedup):
		err = fmt.Errorf("new config answered %d deduplicated=%v, want 202 and a new job", out.status, out.dedup)
	case !hit && out.source != cache.SourceComputed.String():
		err = fmt.Errorf("new config served from %q, want computed", out.source)
	case hit && (out.status != http.StatusOK || !out.dedup):
		err = fmt.Errorf("repeat answered %d deduplicated=%v, want 200 onto the done job", out.status, out.dedup)
	case hit:
		err = checkSameBytes(out.id, first, out.body)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: %s seed %d: %v\n", jc.Experiment, *jc.Seed, err)
		b.fail(o, failCheck)
	}
	return out, true
}

// recordJob records the spans of one service request: the HTTP calls
// the client made and, for a miss, the queue wait, compute and cells
// the job's event stream reports.
func (b *bench) recordJob(job int, kind string, out outcome, miss bool) {
	if !b.traced {
		return
	}
	b.record("serve.submit", job, kind, "", out.t0, out.t1)
	b.record("serve.result", job, kind, "", out.t2, out.t3)
	if !miss {
		return
	}
	var queued, running, last time.Time
	for _, ev := range out.events {
		at, err := time.Parse(time.RFC3339Nano, ev.Time)
		if err != nil {
			continue
		}
		switch ev.Type {
		case "queued":
			queued = at
		case "running":
			running, last = at, at
			b.record("serve.queue_wait", job, kind, "", queued, at)
		case "cell":
			b.record("exp.cell", job, ev.Driver, ev.Source, last, at)
			last = at
		case "done":
			b.record("serve.compute", job, kind, "", running, at)
		}
	}
}

// jobConfig is the wire body of a default invocation with a seed.
func jobConfig(kind string, seed uint64) serve.JobConfig {
	return serve.JobConfig{Experiment: kind, Seed: &seed}
}

func distinct(v []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range v {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// daemon is the experiment service on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startDaemon() (*daemon, error) {
	srv := serve.New(serve.Options{
		Parallel: runtime.NumCPU(),
		Workers:  clients,
		Cache:    cache.New(cache.Config{}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener and drains the service; it returns once
// both have stopped.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

func (d *daemon) stats() (serve.StatsSnapshot, error) {
	var st serve.StatsSnapshot
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	if st.Cache == nil {
		return st, errors.New("stats: no cache counters")
	}
	return st, nil
}

// client submits jobs over HTTP and follows them to their result.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

var errQueueFull = errors.New("429: admission queue full")

// outcome is one job request: submit (t0–t1), follow the event stream
// to the terminal event (t1–t2), fetch the result bytes (t2–t3).
type outcome struct {
	id             string
	status         int
	dedup          bool
	events         []serve.Event
	body           []byte
	source         string
	t0, t1, t2, t3 time.Time
	latency        time.Duration
}

func (c *client) job(jc serve.JobConfig) (outcome, error) {
	var out outcome
	req, err := json.Marshal(jc)
	if err != nil {
		return out, err
	}
	out.t0 = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	out.status = resp.StatusCode
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return out, errQueueFull
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return out, fmt.Errorf("submit: status %d", resp.StatusCode)
	case err != nil:
		return out, fmt.Errorf("submit: %w", err)
	}
	out.id, out.dedup = st.ID, st.Deduplicated
	out.t1 = time.Now()

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + out.id + "/events")
	if err != nil {
		return out, fmt.Errorf("events: %w", err)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.Event
		if err = dec.Decode(&ev); err != nil {
			break
		}
		out.events = append(out.events, ev)
	}
	resp.Body.Close()
	if !errors.Is(err, io.EOF) {
		return out, fmt.Errorf("events: %w", err)
	}
	if n := len(out.events); n == 0 || out.events[n-1].Type != "done" {
		return out, fmt.Errorf("events: job %s did not end done", out.id)
	}
	out.t2 = time.Now()

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + out.id + "/result")
	if err != nil {
		return out, fmt.Errorf("result: %w", err)
	}
	out.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("result: status %d", resp.StatusCode)
	}
	out.source = resp.Header.Get("X-Result-Source")
	out.t3 = time.Now()
	out.latency = out.t3.Sub(out.t0)
	return out, nil
}
