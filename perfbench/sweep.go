package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
)

// sweepParallelism is the harness worker-pool bound of the measured
// sweep. One simulation at a time leaves a core of the 2-core machine
// the benchmark was sized on to the rest of the machine, as the serve
// workloads' single caller does: at parallelism 2, a busy neighbour on
// one core cut the sweep rate by 30%, at parallelism 1 by 14%.
const sweepParallelism = 1

// checkParallelism is the parallelism of the sweep whose rendering must
// match the measured one byte for byte: every core, and at least two so
// that the check always crosses a parallelism change.
var checkParallelism = max(2, runtime.NumCPU())

// goldenFigures is the checked-in rendering of every figure; a sweep
// must reproduce it line for line.
const goldenFigures = "results_figures.txt"

// minSweepReps keeps the sweep medians on several samples even when
// --seconds is shorter than a handful of sweeps.
const minSweepReps = 5

// A harness builds in microseconds, too short to time one at a time:
// set-up is timed in batches of sweepSetupBatch builds, setupBatchesPerRep
// batches before each repetition so the samples span the whole run, and
// setup_s is the median over all batches of the time per build.
const (
	setupBatchesPerRep = 12
	sweepSetupBatch    = 64
)

// timeSetups appends setupBatchesPerRep samples of the time one
// bench.NewHarness takes.
func timeSetups(setups []float64) ([]float64, error) {
	for i := 0; i < setupBatchesPerRep; i++ {
		start := time.Now()
		for j := 0; j < sweepSetupBatch; j++ {
			if _, err := bench.NewHarness(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds()/sweepSetupBatch)
	}
	return setups, nil
}

// sweepRep is one measured RunAll on a fresh harness.
type sweepRep struct {
	wall      time.Duration
	figs      []bench.Figure
	rendered  []byte
	started   float64 // simulations the harness executed
	completed float64
	memoHits  float64
	cpu       time.Duration // process CPU time during RunAll
	// sims holds, in µs, the time from each simulation's completion (or
	// the sweep's start) to the next one's. At parallelism 1 that is
	// one simulation's latency, harness overhead included.
	sims []float64
}

// The harness's exported simulation counters.
const (
	simStarted   = "fg_sim_runs_started_total"
	simCompleted = "fg_sim_runs_completed_total"
	simMemoHits  = "fg_sim_cache_hits_total"
)

// oneSweep builds a fresh harness and regenerates every figure at the
// given parallelism, reading the harness's exported simulation counters
// around the sweep.
func oneSweep(par int) (sweepRep, error) {
	var r sweepRep
	h, err := bench.NewHarness()
	if err != nil {
		return r, fmt.Errorf("building harness: %w", err)
	}
	h.SetParallelism(par)
	var mu sync.Mutex
	var mark time.Time
	h.SetObserver(func(core.Profile) {
		now := time.Now()
		mu.Lock()
		r.sims = append(r.sims, float64(now.Sub(mark).Nanoseconds())/1e3)
		mark = now
		mu.Unlock()
	})
	c0, cpu0 := readCounters(), processCPU()
	start := time.Now()
	mark = start
	r.figs, err = h.RunAll()
	r.wall = time.Since(start)
	r.cpu = processCPU() - cpu0
	c1 := readCounters()
	if err != nil {
		return r, fmt.Errorf("RunAll: %w", err)
	}
	if err := c1.require(simStarted, simCompleted, simMemoHits); err != nil {
		return r, err
	}
	r.started = c1.delta(c0, simStarted)
	r.completed = c1.delta(c0, simCompleted)
	r.memoHits = c1.delta(c0, simMemoHits)
	var b bytes.Buffer
	if err := bench.RenderAll(&b, r.figs); err != nil {
		return r, err
	}
	r.rendered = b.Bytes()
	return r, nil
}

// basePhasesPrefix starts the per-phase line Render prints under each
// figure's notes. results_figures.txt predates that line, so it holds
// every line of the rendering except these.
const basePhasesPrefix = "  base phases: "

// checkGolden compares a rendering with results_figures.txt: with the
// base-phase lines set aside, the two must be identical line for line.
// It describes the first difference.
func checkGolden(rendered, golden []byte) error {
	var got []string
	for _, l := range strings.Split(string(rendered), "\n") {
		if !strings.HasPrefix(l, basePhasesPrefix) {
			got = append(got, l)
		}
	}
	want := strings.Split(string(golden), "\n")
	for i, w := range want {
		if i >= len(got) {
			return fmt.Errorf("%s line %d: sweep output ends early", goldenFigures, i+1)
		}
		if got[i] != w {
			return fmt.Errorf("%s line %d: want %q, got %q", goldenFigures, i+1, w, got[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Errorf("sweep output has %d lines past the end of %s", len(got)-len(want), goldenFigures)
	}
	return nil
}

// maxGlobalRelErrPct is the largest global-reduction relative error over
// every figure cell, in percent.
func maxGlobalRelErrPct(figs []bench.Figure) float64 {
	var m float64
	for _, f := range figs {
		if e := f.MaxError(core.GlobalReduction); e > m {
			m = e
		}
	}
	return 100 * m
}

func cells(figs []bench.Figure) int {
	n := 0
	for _, f := range figs {
		n += len(f.Cells)
	}
	return n
}

// runSweep measures the figure sweep end to end: whole RunAll
// repetitions on fresh harnesses until d has elapsed, then one sweep at
// checkParallelism that must render byte-identically.
func runSweep(d time.Duration, rep *report) error {
	golden, err := os.ReadFile(goldenFigures)
	if err != nil {
		return err
	}
	var setups []float64
	var reps []sweepRep
	var total time.Duration
	for total < d || len(reps) < minSweepReps {
		if setups, err = timeSetups(setups); err != nil {
			return err
		}
		r, err := oneSweep(sweepParallelism)
		rep.tally.sims(int(r.started), int(r.completed))
		if err != nil {
			return err
		}
		if err := checkGolden(r.rendered, golden); err != nil {
			rep.fail("parallel sweep %d: %v", len(reps)+1, err)
		}
		reps = append(reps, r)
		total += r.wall
	}
	par, err := oneSweep(checkParallelism)
	rep.tally.sims(int(par.started), int(par.completed))
	if err != nil {
		return err
	}
	if !bytes.Equal(par.rendered, reps[0].rendered) {
		rep.fail("sweep output at parallelism %d differs from parallelism %d", checkParallelism, sweepParallelism)
	}

	// A repetition is the sweep's round: each rate is its median over
	// repetitions, as on the serve workloads. The sweep's unit of work is
	// a simulation, so its latencies are those of the simulations, pooled
	// over the repetitions: one holds some 190, too few for a p95 with
	// ten beyond it.
	var walls, simCPURates, cellCPURates, sims []float64
	for _, r := range reps {
		walls = append(walls, float64(r.wall.Nanoseconds())/1e3)
		simCPURates = append(simCPURates, r.completed/r.cpu.Seconds())
		cellCPURates = append(cellCPURates, float64(cells(r.figs))/r.cpu.Seconds())
		sims = append(sims, r.sims...)
	}
	p50, _ := quantile(sims, 0.50)
	p95, _ := quantile(sims, 0.95)
	rep.add("throughput_per_cpu_s", median(simCPURates), "1/cpu-s", len(reps), true)
	rep.add("items_per_cpu_s", median(cellCPURates), "1/cpu-s", len(reps), true)
	rep.add("latency.p50_us", p50, "us", len(sims), true)
	rep.add("latency.p95_us", p95, "us", len(sims), true)
	rep.add("setup_s", median(setups), "s", len(setups), true)
	rep.add("peak_rss_mb", peakRSSMB(), "MB", -1, true)

	rep.add("sweep_s", median(walls)/1e6, "s", len(reps), false)
	rep.add("model.max_relerr_pct", maxGlobalRelErrPct(reps[0].figs), "%", -1, false)
	rep.add("bench.sims_per_sweep", reps[0].started, "count", -1, false)
	rep.add("error_rate", rep.tally.errorRate(), "ratio", rep.tally.attempted, false)
	return nil
}
