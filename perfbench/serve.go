package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"freerideg/internal/fgservice"
	"freerideg/internal/loadgen"
)

// Load model shared by both serve workloads: closed-loop callers, all in
// this process, replaying loadgen's seeded op stream through the
// in-process handler target. A resource-selection client waits for its
// answer before it launches, hence closed loop; in-process dispatch
// keeps socket and scheduler noise out of the numbers.
const (
	// callers is the closed-loop caller count. One caller leaves the
	// second core of the 2-core machine the benchmark was sized on to
	// the handler's own goroutines, the collector and the rest of the
	// machine: with two, a busy neighbour on one core cut the measured
	// throughput by 45%, with one by 15% (README.md, Load model).
	callers = 1
	// warmupRequests is the untimed prefix of the op stream replayed on
	// a fresh server to fill its caches; it is charged to setup_s.
	warmupRequests = 2000
	// serveSetups is how many times a run builds and warms a server;
	// setup_s is their median and the last server is measured.
	serveSetups = 9
)

// serveWorkload is one traffic mix. Every measured round replays the
// same seeded op stream (loadgen's schedule is a pure function of its
// options), so a run is a time-bounded number of identical rounds.
type serveWorkload struct {
	name  string
	mix   loadgen.Mix
	round int
	// coherence is the number of drift-driven recalibration batches
	// loadgen interleaves with each round.
	coherence int
}

var (
	// serveRead is singular /predict and /select at 8:2 with no writes:
	// the response caches run at ~99% hits, so the per-request HTTP
	// layers (decode, encode, middleware) dominate.
	serveRead = serveWorkload{
		name:  "serve-read",
		mix:   loadgen.Mix{Predict: 8, Select: 2},
		round: 20000,
	}
	// serveWrite adds /observe, /runs and batches, with recalibrations
	// interleaved: writes invalidate the caches serve-read only hits,
	// force rank-engine recomputes, drive profile ingest and fan batch
	// items over the worker pool. The mix is the one scripts/check.sh
	// runs its cancellation smoke with, and the recalibration density is
	// `make load`'s coherence soak (8 batches per 2000 requests). Of the
	// mixes the repository runs, it comes closest to the cache behaviour
	// an earlier probe of write traffic saw (README.md).
	serveWrite = serveWorkload{
		name:      "serve-write",
		mix:       loadgen.Mix{Predict: 3, Select: 3, Observe: 1, Runs: 1, PredictBatch: 1, SelectBatch: 1},
		round:     6000,
		coherence: 24,
	}
)

func (w serveWorkload) options(seed int64, requests, coherence int) loadgen.Options {
	return loadgen.Options{
		Requests:    requests,
		Concurrency: callers,
		Seed:        seed,
		Mix:         w.mix,
		Coherence:   coherence,
	}
}

// checksum fingerprints the round's op stream for the given seed.
func (w serveWorkload) checksum(seed int64) string {
	return loadgen.New(nil, w.options(seed, w.round, w.coherence)).Checksum()
}

// setupServer builds a server and replays the warm-up prefix through it,
// returning the server's handler and the time both took.
func setupServer(w serveWorkload, seed int64, opts fgservice.Options) (*fgservice.Server, http.Handler, time.Duration, error) {
	start := time.Now()
	srv, err := fgservice.New(opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("building server: %w", err)
	}
	h := srv.Handler()
	rep, err := loadgen.New(loadgen.NewHandlerTarget(h), w.options(seed, warmupRequests, 0)).Run()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	if n := rep.Overall.Errors + rep.TransportErrors + rep.BatchItemErrors; n > 0 {
		return nil, nil, 0, fmt.Errorf("warm-up: %d failed operations", n)
	}
	return srv, h, time.Since(start), nil
}

// Request classes of the latency table. Writes pool /observe and /runs.
const (
	classPredict = "predict"
	classSelect  = "select"
	classWrite   = "write"
	classBatch   = "batch"
)

func classOf(path string) string {
	switch path {
	case "/predict":
		return classPredict
	case "/select":
		return classSelect
	case "/observe", "/runs":
		return classWrite
	}
	return classBatch
}

// recorder is a loadgen.Target that times every exchange with the
// target it wraps. It checks no answer: the checked rounds that bracket
// the measured ones do that (see verifyReads), so checking costs no
// measured round any time.
type recorder struct {
	inner loadgen.Target

	mu      sync.Mutex
	lat     map[string]*histogram // µs per singular class, whole run
	round   []float64             // µs of this round's non-batch exchanges
	n       int                   // exchanges this round
	ok      int                   // 2xx exchanges this round
	okBatch int                   // 2xx batch exchanges this round
	tally   tally
}

func newRecorder(inner loadgen.Target) *recorder {
	lat := make(map[string]*histogram)
	for _, c := range []string{classPredict, classSelect, classWrite} {
		lat[c] = new(histogram)
	}
	return &recorder{inner: inner, lat: lat}
}

func (r *recorder) Do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	start := time.Now()
	status, resp, err := r.inner.Do(ctx, method, path, body)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	if err != nil {
		// loadgen's report counts transport errors; tallying them here
		// too would count them twice.
		return status, resp, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tally.response(status)
	r.n++
	c := classOf(path)
	if status >= 200 && status <= 299 {
		r.ok++
		if c == classBatch {
			r.okBatch++
		}
	}
	if c != classBatch {
		r.lat[c].add(us)
		r.round = append(r.round, us)
	}
	return status, resp, err
}

// checker is a loadgen.Target that checks every answer of the target
// it wraps and times nothing.
type checker struct {
	inner loadgen.Target
	check func(path string, body []byte, status int, resp []byte) error

	mu    sync.Mutex
	tally tally
	err   error // the first wrong answer
}

func (c *checker) Do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	status, resp, err := c.inner.Do(ctx, method, path, body)
	if err != nil {
		return status, resp, err
	}
	cerr := c.check(path, body, status, resp)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tally.response(status)
	if cerr != nil && c.err == nil {
		c.err = fmt.Errorf("%s %s: %w", path, body, cerr)
	}
	return status, resp, err
}

// verifyReads replays one serve-read round through h with every answer
// checked by ver, outside the measured rounds, and records the outcome
// in rep. A run verifies a round before its first measured round and
// after its last; the answers are a pure function of the store
// snapshot, whose version the run also checks did not move.
func verifyReads(h http.Handler, seed int64, ver *readVerifier, rep *report) error {
	c := &checker{inner: loadgen.NewHandlerTarget(h), check: ver.check}
	lrep, err := loadgen.New(c, serveRead.options(seed, serveRead.round, 0)).Run()
	if err != nil {
		return fmt.Errorf("checked round: %w", err)
	}
	c.tally.transport(lrep.TransportErrors)
	rep.tally.merge(c.tally)
	if c.err != nil {
		rep.fail("%s answer check: %v", serveRead.name, c.err)
	}
	return nil
}

// roundStat is one round's end-to-end figures.
type roundStat struct {
	wall      time.Duration
	cpu       time.Duration // process CPU time of the round (see measure)
	exchanges int
	ok        int // 2xx exchanges
	items     int // answered items (see endRound)
	batch     int // answered batch items
	p50, p95  float64
	n         int // latency samples
}

// endRound closes a round: its figures from the exchanges recorded
// since the last call and loadgen's report of the same round. A batch
// answers its items, not itself, so items counts each successful item
// and each successful singular exchange once. Rounds never overlap, so
// nothing is recording while it runs.
func (r *recorder) endRound(rep loadgen.Report, wall time.Duration) roundStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tally.transport(rep.TransportErrors)
	r.tally.batchItems(rep.BatchItems, rep.BatchItemErrors)
	st := roundStat{
		wall:      wall,
		exchanges: r.n,
		ok:        r.ok,
		batch:     rep.BatchItems - rep.BatchItemErrors,
		n:         len(r.round),
	}
	st.items = r.ok - r.okBatch + st.batch
	st.p50, _ = quantile(r.round, 0.50)
	st.p95, _ = quantile(r.round, 0.95)
	r.round, r.n, r.ok, r.okBatch = r.round[:0], 0, 0, 0
	return st
}

// serveRun is the outcome of replaying rounds through a recorder.
type serveRun struct {
	rec        *recorder
	rounds     []roundStat
	violations int // coherence violations
	checked    int // reads the coherence check covered
	cohErrors  int // coordinator exchanges that failed
}

// measure replays whole rounds through rec until d has elapsed. Every
// round replays the same seeded op stream on one loadgen runner. A
// round's wall time is loadgen's DurationSeconds: it starts after the
// runner's warm-up request and ends before the runner assembles its
// report. Its CPU time is the process's, less that of the goroutine
// calling Run, which makes the warm-up request and assembles the report
// while the callers and the coherence coordinator run on goroutines of
// their own. after, if set, runs between rounds, outside every round.
func measure(w serveWorkload, rec *recorder, seed int64, d time.Duration, after func()) (serveRun, error) {
	// Held on its thread, this goroutine's CPU time is the thread's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	run := serveRun{rec: rec}
	runner := loadgen.New(rec, w.options(seed, w.round, w.coherence))
	for begin := time.Now(); time.Since(begin) < d; {
		proc0, self0 := processCPU(), threadCPU()
		rep, err := runner.Run()
		if err != nil {
			return run, err
		}
		cpu := processCPU() - proc0 - (threadCPU() - self0)
		wall := time.Duration(rep.DurationSeconds * float64(time.Second))
		st := rec.endRound(rep, wall)
		st.cpu = cpu
		run.rounds = append(run.rounds, st)
		if rep.Coherence != nil {
			run.violations += rep.Coherence.Violations
			run.checked += rep.Coherence.Checked
			run.cohErrors += rep.Coherence.Errors
		}
		if after != nil {
			after()
		}
	}
	return run, nil
}

// over is one figure's value over the run: its median across rounds.
// Interference from the rest of the machine comes and goes within a
// run, and the median passes over the rounds it hit hardest.
func (run serveRun) over(f func(roundStat) float64) float64 {
	xs := make([]float64, len(run.rounds))
	for i, st := range run.rounds {
		xs[i] = f(st)
	}
	return median(xs)
}

func cpuRate(st roundStat, n int) float64 { return float64(n) / st.cpu.Seconds() }

// gates records the run's correctness failures.
func (run serveRun) gates(w serveWorkload, rep *report) {
	if run.cohErrors > 0 {
		rep.fail("%s: coherence coordinator saw %d failed exchanges", w.name, run.cohErrors)
	}
	if run.violations > 0 {
		rep.fail("%s: %d coherence violations in %d checked reads", w.name, run.violations, run.checked)
	}
	if w.coherence > 0 && run.checked == 0 {
		rep.fail("%s: the coherence check saw no reads", w.name)
	}
}

// runServe measures one serve workload end to end. Each end-to-end
// figure is taken per round and reported as its median over the rounds.
func runServe(w serveWorkload, seed int64, d time.Duration, rep *report) error {
	var setups []float64
	var srv *fgservice.Server
	var h http.Handler
	for i := 0; i < serveSetups; i++ {
		// Each set-up starts from a collected heap, so when the previous
		// one's garbage gets collected does not decide its time.
		runtime.GC()
		s, hh, took, err := setupServer(w, seed, fgservice.Options{})
		if err != nil {
			return err
		}
		srv, h = s, hh
		setups = append(setups, took.Seconds())
	}

	var ver *readVerifier
	if w.name == serveRead.name {
		var err error
		if ver, err = newReadVerifier(srv); err != nil {
			return err
		}
		if err := verifyReads(h, seed, ver, rep); err != nil {
			return err
		}
	}
	run, err := measure(w, newRecorder(loadgen.NewHandlerTarget(h)), seed, d, nil)
	if err != nil {
		return err
	}
	rec := run.rec
	rep.tally.merge(rec.tally)
	run.gates(w, rep)
	if ver != nil {
		if err := verifyReads(h, seed, ver, rep); err != nil {
			return err
		}
		if v := srv.Store().Snapshot().Version(); v != ver.version {
			rep.fail("store version moved from %d to %d on a read-only workload", ver.version, v)
		}
	}

	var ok, batch, samples int
	var wall time.Duration
	for _, st := range run.rounds {
		ok += st.ok
		batch += st.batch
		samples += st.n
		wall += st.wall
	}
	rounds := len(run.rounds)
	rep.add("throughput_per_cpu_s", run.over(func(st roundStat) float64 { return cpuRate(st, st.ok) }), "1/cpu-s", rounds, true)
	rep.add("items_per_cpu_s", run.over(func(st roundStat) float64 { return cpuRate(st, st.items) }), "1/cpu-s", rounds, true)
	rep.add("latency.p50_us", run.over(func(st roundStat) float64 { return st.p50 }), "us", rounds, true)
	rep.add("latency.p95_us", run.over(func(st roundStat) float64 { return st.p95 }), "us", rounds, true)
	rep.add("setup_s", median(setups), "s", len(setups), true)
	rep.add("peak_rss_mb", peakRSSMB(), "MB", -1, true)

	// The per-class breakdown over the whole run, under the names the
	// layer table uses.
	rep.add("throughput_rps", float64(ok)/wall.Seconds(), "1/s", ok, false)
	for _, c := range []string{classPredict, classSelect, classWrite} {
		lat := rec.lat[c]
		if lat.n == 0 {
			continue
		}
		p50, _ := lat.quantile(0.50)
		p99, beyond := lat.quantile(0.99)
		rep.add(c+".p50_us", p50, "us", lat.n, false)
		rep.add(c+".p99_us", p99, "us", lat.n, false)
		if beyond < 10 {
			rep.fail("%s.p99_us rests on %d samples beyond it; the run is too short", c, beyond)
		}
	}
	if batch > 0 {
		rep.add("batch.items_per_s", float64(batch)/wall.Seconds(), "1/s", batch, false)
	}
	rep.add("error_rate", rep.tally.errorRate(), "ratio", rep.tally.attempted, false)
	rep.add("latency.samples", float64(samples), "count", -1, false)
	return nil
}
