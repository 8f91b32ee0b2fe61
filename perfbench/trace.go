package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/fgservice"
	"freerideg/internal/loadgen"
	"freerideg/internal/reqtrace"
	"freerideg/internal/simgrid"
)

// The traced run measures every layer on the workload that exercises
// it, whatever --workload names: the serve-read layers on serve-read
// traffic, the write-path layers on serve-write traffic, and the sweep
// layers on the figure sweep. Each serve pass first runs untraced (the
// program's own counters and the overhead baseline are read there, so
// the replay's calls into shared layers cannot pollute them), then
// traced.
const (
	// traceSample replays one request in this many.
	traceSample = 8
	// serveTraceShare is the part of --seconds each serve pass gets.
	serveTraceShare = 0.4
	// switchWaits is how many park/resume cycles one engine probe runs.
	switchWaits  = 200000
	switchProbes = 5
)

// servePass is one serve workload's traced measurement.
type servePass struct {
	untraced, traced serveRun
	requests         int // exchanges in the untraced half
	c0, c1           counters
	m0, m1           runtime.MemStats
	spans            spanIndex
	debug            map[string][]float64 // µs per /debug/requests span name
}

func runTrace(seed int64, d time.Duration, rep *report) error {
	serveD := time.Duration(float64(d) * serveTraceShare)
	tracers := map[string]*tracer{}
	passes := map[string]*servePass{}
	for _, w := range []serveWorkload{serveRead, serveWrite} {
		t := newTracer()
		p, err := traceServe(w, seed, serveD, t, rep)
		if err != nil {
			return fmt.Errorf("%s pass: %w", w.name, err)
		}
		tracers[w.name], passes[w.name] = t, p
	}
	t := newTracer()
	if err := traceSweep(t, rep); err != nil {
		return fmt.Errorf("sweep pass: %w", err)
	}
	tracers["sweep"] = t

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	for name, t := range tracers {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := t.dump(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	readLayers(passes[serveRead.name], rep)
	writeLayers(passes[serveWrite.name], rep)
	return nil
}

// traceServe runs one serve workload's untraced and traced halves on
// one freshly set-up server.
func traceServe(w serveWorkload, seed int64, d time.Duration, t *tracer, rep *report) (*servePass, error) {
	// TraceSample 1 has the server record every request into its own
	// /debug/requests ring, which the traced half samples.
	srv, h, _, err := setupServer(w, seed, fgservice.Options{TraceSample: 1})
	if err != nil {
		return nil, err
	}
	var ver *readVerifier
	if w.name == serveRead.name {
		if ver, err = newReadVerifier(srv); err != nil {
			return nil, err
		}
		if err := verifyReads(h, seed, ver, rep); err != nil {
			return nil, err
		}
	}
	p := &servePass{debug: make(map[string][]float64)}

	runtime.ReadMemStats(&p.m0)
	p.c0 = readCounters()
	p.untraced, err = measure(w, newRecorder(loadgen.NewHandlerTarget(h)), seed, d/2, nil)
	p.c1 = readCounters()
	runtime.ReadMemStats(&p.m1)
	if err != nil {
		return nil, err
	}
	for _, st := range p.untraced.rounds {
		p.requests += st.exchanges
	}

	rp, err := newReplayer(t, srv)
	if err != nil {
		return nil, err
	}
	th := &tracedHandler{h: h, t: t, rp: rp, sample: traceSample}
	seen := make(map[string]bool)
	debug := loadgen.NewHandlerTarget(h)
	var pollErr error
	poll := func() {
		if err := pollDebug(debug, seen, p.debug); err != nil && pollErr == nil {
			pollErr = err
		}
	}
	p.traced, err = measure(w, newRecorder(loadgen.NewHandlerTarget(th)), seed, d/2, poll)
	if err != nil {
		return nil, err
	}
	if ver != nil {
		if err := verifyReads(h, seed, ver, rep); err != nil {
			return nil, err
		}
		if v := srv.Store().Snapshot().Version(); v != ver.version {
			rep.fail("store version moved from %d to %d on a read-only workload", ver.version, v)
		}
	}
	if pollErr != nil {
		return nil, pollErr
	}
	if th.err != nil {
		rep.fail("%s replay: %v", w.name, th.err)
	}
	for _, run := range []serveRun{p.untraced, p.traced} {
		run.gates(w, rep)
		rep.tally.merge(run.rec.tally)
	}
	p.spans = indexSpans(t.snapshot())
	return p, nil
}

// pollDebug reads the server's /debug/requests ring and adds the
// decode, encode and cache span durations of records not seen before.
func pollDebug(target loadgen.Target, seen map[string]bool, out map[string][]float64) error {
	status, body, err := target.Do(context.Background(), http.MethodGet, "/debug/requests", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/debug/requests: status %d", status)
	}
	var snap reqtrace.RingSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("/debug/requests: %w", err)
	}
	for _, rec := range snap.Recent {
		if seen[rec.ID] {
			continue
		}
		seen[rec.ID] = true
		for _, sp := range rec.Spans {
			switch sp.Name {
			case "decode", "encode", "cache:predict", "cache:select":
				out[sp.Name] = append(out[sp.Name], float64(sp.DurationNs.Nanoseconds())/1e3)
			}
		}
	}
	return nil
}

// addMedian reports a population's median with its sample count. An
// empty population means the layer was never measured, and reading it
// as 0 would look like a perfect gain, so it fails the run instead.
func addMedian(rep *report, name string, xs []float64, unit string) {
	if len(xs) == 0 {
		rep.fail("%s: no samples", name)
		rep.add(name, 0, unit, 0, true)
		return
	}
	rep.add(name, median(xs), unit, len(xs), true)
}

// addRatio reports a/b. A zero denominator means the layer did no work
// on its pass, which fails the run for the same reason as an empty
// population in addMedian.
func addRatio(rep *report, name string, a, b float64, unit string, samples int) {
	if b == 0 {
		rep.fail("%s: nothing to divide by", name)
	}
	rep.add(name, ratio(a, b), unit, samples, true)
}

// requireCounters fails the run when a counter series the benchmark
// reads is missing from the registry, so a renamed counter cannot read
// as a growth of 0.
func requireCounters(rep *report, c counters, series ...string) {
	if err := c.require(series...); err != nil {
		rep.fail("%v", err)
	}
}

// overheadPct compares the traced half's latency.p50_us with the
// untraced half's.
func overheadPct(p *servePass) float64 {
	p50 := func(st roundStat) float64 { return st.p50 }
	return 100 * (p.traced.over(p50)/p.untraced.over(p50) - 1)
}

// readLayers reports the layers serve-read exercises.
func readLayers(p *servePass, rep *report) {
	ix := p.spans
	addMedian(rep, "fgservice.decode_us", ix.durations("fgservice.decode"), "us")
	addMedian(rep, "fgservice.encode_us", ix.durations("fgservice.encode"), "us")

	// Middleware self time: the handler span minus the replay of the
	// same request's decode, cache (and, on a miss, core) and encode.
	var self []float64
	for _, root := range ix.spans {
		if root.Name != "fgservice.handler" {
			continue
		}
		d, ok1 := ix.child(root.ID, "fgservice.decode")
		e, ok2 := ix.child(root.ID, "fgservice.encode")
		g, ok3 := ix.child(root.ID, "servecache.get.hit")
		if !ok3 {
			g, ok3 = ix.child(root.ID, "servecache.get.miss")
		}
		if ok1 && ok2 && ok3 {
			self = append(self, float64(root.dur()-d.dur()-g.dur()-e.dur())/1e3)
		}
	}
	addMedian(rep, "fgservice.middleware_self_us", self, "us")

	req := float64(p.requests)
	addRatio(rep, "fgservice.allocs_per_req", float64(p.m1.Mallocs-p.m0.Mallocs), req, "count", p.requests)
	addRatio(rep, "runtime.gc_cycles_per_kreq", 1000*float64(p.m1.NumGC-p.m0.NumGC), req, "1/kreq", p.requests)
	addMedian(rep, "servecache.get_hit_us", ix.self("servecache.get.hit"), "us")
	addMedian(rep, "grid.rank_us", ix.durations("grid.rank"), "us")
	addMedian(rep, "core.predict_us", ix.durations("core.predict"), "us")
	rep.add("trace.overhead_pct.serve-read", overheadPct(p), "%", len(p.traced.rounds), true)

	// The server's own spans beside the replay's: a replay that stops
	// mirroring the handler shows as a gap between the two.
	addMedian(rep, "debug.decode_us", p.debug["decode"], "us")
	addMedian(rep, "debug.encode_us", p.debug["encode"], "us")
	addMedian(rep, "debug.cache_us", append(p.debug["cache:predict"], p.debug["cache:select"]...), "us")
}

// writeLayers reports the layers serve-write exercises.
func writeLayers(p *servePass, rep *report) {
	req := float64(p.requests)
	var series []string
	for _, c := range []string{"predict", "select"} {
		label := `{cache="` + c + `"}`
		for _, name := range []string{"hits", "misses", "coalesced", "invalidations"} {
			series = append(series, "fg_servecache_"+name+"_total"+label)
		}
	}
	series = append(series, "fg_rank_engine_reused_total", "fg_rank_engine_recomputed_total",
		"fg_profile_recalibrations_total")
	requireCounters(rep, p.c1, series...)
	for _, c := range []string{"predict", "select"} {
		label := `{cache="` + c + `"}`
		hits := p.c1.delta(p.c0, "fg_servecache_hits_total"+label)
		reads := hits + p.c1.delta(p.c0, "fg_servecache_misses_total"+label) +
			p.c1.delta(p.c0, "fg_servecache_coalesced_total"+label)
		addRatio(rep, "servecache.hit_ratio."+c, hits, reads, "ratio", int(reads))
	}
	var inv float64
	for _, c := range []string{"predict", "select"} {
		n := p.c1.delta(p.c0, `fg_servecache_invalidations_total{cache="`+c+`"}`)
		rep.add("servecache.invalidations_per_kreq."+c, ratio(1000*n, req), "1/kreq", p.requests, false)
		inv += n
	}
	addRatio(rep, "servecache.invalidations_per_kreq", 1000*inv, req, "1/kreq", p.requests)
	reused := p.c1.delta(p.c0, "fg_rank_engine_reused_total")
	recomputed := p.c1.delta(p.c0, "fg_rank_engine_recomputed_total")
	addRatio(rep, "grid.rank_reused_ratio", reused, reused+recomputed, "ratio", int(reused+recomputed))
	recal := p.c1.delta(p.c0, "fg_profile_recalibrations_total")
	addRatio(rep, "profile.recalibrations_per_kreq", 1000*recal, req, "1/kreq", p.requests)

	ix := p.spans
	addMedian(rep, "servecache.get_miss_us", ix.self("servecache.get.miss"), "us")
	addMedian(rep, "profile.ingest_us", ix.durations("profile.ingest"), "us")
	var perItem []float64
	for _, s := range ix.spans {
		if s.Name == "workpool.run" && s.Items > 0 {
			perItem = append(perItem, float64(s.dur())/1e3/float64(s.Items))
		}
	}
	addMedian(rep, "workpool.item_us", perItem, "us")
	rep.add("trace.overhead_pct.serve-write", overheadPct(p), "%", len(p.traced.rounds), true)
}

// traceSweep measures the sweep layers: one sweep at the measured
// parallelism for the harness counters and CPU use, one serial sweep figure by figure with a
// span per bench.Harness.Run and per engine simulation, and the engine's
// park/resume cost.
func traceSweep(t *tracer, rep *report) error {
	golden, err := os.ReadFile(goldenFigures)
	if err != nil {
		return err
	}
	r, err := oneSweep(sweepParallelism)
	rep.tally.sims(int(r.started), int(r.completed))
	if err != nil {
		return err
	}
	if err := checkGolden(r.rendered, golden); err != nil {
		rep.fail("sweep: %v", err)
	}
	if r.started == 0 {
		rep.fail("bench.sims_per_sweep: the sweep started no simulation")
	}
	rep.add("bench.sims_per_sweep", r.started, "count", -1, true)
	addRatio(rep, "bench.memo_hit_ratio", r.memoHits, r.memoHits+r.started, "ratio", int(r.memoHits+r.started))
	addRatio(rep, "sweep.cpu_per_wall", r.cpu.Seconds(), r.wall.Seconds(), "ratio", -1)
	rep.add("model.max_relerr_pct", maxGlobalRelErrPct(r.figs), "%", -1, true)

	// Serial, so one simulation runs at a time: the observer fires as
	// each engine run completes, and the interval since the previous
	// completion (or since the figure began) is that simulation's span.
	h, err := bench.NewHarness()
	if err != nil {
		return err
	}
	h.SetParallelism(1)
	var mu sync.Mutex
	var tid uint64
	var parent int
	var mark time.Time
	h.SetObserver(func(core.Profile) {
		now := time.Now()
		mu.Lock()
		t.record(tid, parent, "middleware.simulate", mark, now)
		mark = now
		mu.Unlock()
	})
	c0 := readCounters()
	for _, id := range bench.FigureIDs() {
		mu.Lock()
		tid = t.newTrace()
		parent = t.begin(tid, -1, "bench.Run")
		mark = time.Now()
		mu.Unlock()
		_, err := h.Run(id)
		t.end(parent)
		if err != nil {
			return err
		}
	}
	c1 := readCounters()
	requireCounters(rep, c1, simStarted, simCompleted)
	rep.tally.sims(int(c1.delta(c0, simStarted)), int(c1.delta(c0, simCompleted)))

	var runs []float64
	for _, us := range indexSpans(t.snapshot()).durations("bench.Run") {
		runs = append(runs, us/1e6)
	}
	addMedian(rep, "bench.figure_s", runs, "s")
	var sims []float64
	for _, us := range indexSpans(t.snapshot()).durations("middleware.simulate") {
		sims = append(sims, us/1e3)
	}
	addMedian(rep, "middleware.simulate_ms", sims, "ms")

	var switches []float64
	for i := 0; i < switchProbes; i++ {
		ns, err := switchCost(t)
		if err != nil {
			return err
		}
		switches = append(switches, ns)
	}
	addMedian(rep, "simgrid.switch_ns", switches, "ns")
	return nil
}

// switchCost runs two simulated processes that only advance the clock,
// so every event is one park and one resume through the public
// Engine/Proc API, and returns the wall time per event.
func switchCost(t *tracer) (float64, error) {
	e := simgrid.NewEngine()
	for i := 0; i < 2; i++ {
		e.Spawn("switch", func(p *simgrid.Proc) {
			for j := 0; j < switchWaits/2; j++ {
				p.Wait(time.Microsecond)
			}
		})
	}
	tid := t.newTrace()
	s := t.begin(tid, -1, "simgrid.Engine.Run")
	t.set(s, func(sp *span) { sp.Items = switchWaits })
	start := time.Now()
	err := e.Run()
	took := time.Since(start)
	t.end(s)
	return float64(took.Nanoseconds()) / switchWaits, err
}
