package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freerideg/internal/metrics"
)

func TestQuantileNearestRankAndBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: quantile must sort
	}
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 50, 50},
		{0.99, 99, 1},
		{1.00, 100, 0},
		{0.00, 1, 99},
		{0.001, 1, 99},
	} {
		v, beyond := quantile(xs, c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("quantile(1..100, %v) = %v with %d beyond, want %v with %d", c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile reordered its input")
	}
}

func TestQuantileSmallSamples(t *testing.T) {
	// With fewer than 100 samples a p99 is the maximum and has nothing
	// beyond it: the count says so.
	v, beyond := quantile([]float64{3, 1, 2}, 0.99)
	if v != 3 || beyond != 0 {
		t.Errorf("p99 of 3 samples = %v with %d beyond, want 3 with 0", v, beyond)
	}
	if v, beyond := quantile([]float64{7}, 0.5); v != 7 || beyond != 0 {
		t.Errorf("median of one sample = %v with %d beyond", v, beyond)
	}
	if v, beyond := quantile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("quantile of nothing = %v with %d beyond, want NaN with 0", v, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", m)
	}
}

func TestHistogramQuantileWithinOnePercent(t *testing.T) {
	var h histogram
	var xs []float64
	for i := 1; i <= 10000; i++ {
		v := 5 + float64(i%997)*0.37 + float64(i%13)*11
		h.add(v)
		xs = append(xs, v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want, wantBeyond := quantile(xs, q)
		got, beyond := h.quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, want)
		}
		// Samples sharing the quantile's bucket are not beyond it.
		if beyond > wantBeyond {
			t.Errorf("q=%v: %d beyond, exact has %d", q, beyond, wantBeyond)
		}
	}
	var empty histogram
	if v, n := empty.quantile(0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty histogram quantile = %v with %d beyond", v, n)
	}
	h.add(0) // below the range: first bucket, not a panic
	h.add(1e12)
}

func TestTallyCountsFailures(t *testing.T) {
	var ta tally
	for _, status := range []int{200, 204, 299, 300, 404, 499, 503} {
		ta.response(status)
	}
	ta.transport(2)
	ta.batchItems(64, 3)
	ta.sims(193, 192)
	if ta.attempted != 7+2+64+193 {
		t.Errorf("attempted = %d, want %d", ta.attempted, 7+2+64+193)
	}
	if want := 4 + 2 + 3 + 1; ta.failed != want {
		t.Errorf("failed = %d, want %d", ta.failed, want)
	}
	if got, want := ta.errorRate(), 10.0/266; got != want {
		t.Errorf("errorRate = %v, want %v", got, want)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("error rate of nothing attempted is not 0")
	}
}

func TestReportLastLineIsTheResult(t *testing.T) {
	rep := newReport()
	rep.add("latency.p50_us", 12.5, "us", 1000, true)
	rep.add("predict.p50_us", 11, "us", 800, false)
	rep.tally.response(200)
	var b bytes.Buffer
	if err := rep.write(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys = %v, want exactly correct, attempted, failed, metrics", res)
	}
	var ms map[string]metric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms["latency.p50_us"] != (metric{12.5, "us"}) {
		t.Errorf("metrics = %v, want only latency.p50_us", ms)
	}
	if !strings.Contains(b.String(), "predict.p50_us") {
		t.Error("table omits the detail row")
	}

	rep.fail("wrong answer")
	b.Reset()
	if err := rep.write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"correct":false`) {
		t.Error("a gate failure did not make the result incorrect")
	}

	rep.add("broken", math.NaN(), "us", 0, true)
	if err := rep.write(&b); err == nil {
		t.Error("a non-finite metric was written")
	}
}

func TestCheckGoldenSkipsOnlyBasePhaseLines(t *testing.T) {
	golden := []byte("Fig2: k-means\n  target: x\n  1-1 1s\n")
	ok := []byte("Fig2: k-means\n  target: x\n" + basePhasesPrefix + "retrieval 1s\n  1-1 1s\n")
	if err := checkGolden(ok, golden); err != nil {
		t.Errorf("rendering with a base-phase line: %v", err)
	}
	for name, rendered := range map[string]string{
		"changed line": "Fig2: k-means\n  target: y\n  1-1 1s\n",
		"short":        "Fig2: k-means\n",
		"extra line":   "Fig2: k-means\n  target: x\n  1-1 1s\n  1-2 2s\n",
	} {
		if err := checkGolden([]byte(rendered), golden); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCountersDelta(t *testing.T) {
	c := metrics.GetCounter("perfbench_test_total", "Counter the benchmark's tests move.",
		metrics.Label{Key: "k", Value: "v"})
	before := readCounters()
	c.Add(3)
	if d := readCounters().delta(before, `perfbench_test_total{k="v"}`); d != 3 {
		t.Errorf("delta = %v, want 3", d)
	}
}

func TestCountersRequireNamesMissingSeries(t *testing.T) {
	metrics.GetCounter("perfbench_present_total", "Counter the benchmark's tests read.")
	c := readCounters()
	if err := c.require("perfbench_present_total"); err != nil {
		t.Errorf("registered series: %v", err)
	}
	if err := c.require("perfbench_present_total", "perfbench_renamed_total"); err == nil ||
		!strings.Contains(err.Error(), "perfbench_renamed_total") {
		t.Errorf("missing series: err = %v, want it named", err)
	}
}

func TestEmptyLayerPopulationsFailTheRun(t *testing.T) {
	rep := newReport()
	addMedian(rep, "layer.a_us", []float64{3, 1, 2}, "us")
	addRatio(rep, "layer.b_ratio", 1, 4, "ratio", 4)
	if len(rep.failures) != 0 {
		t.Fatalf("populated layers failed: %v", rep.failures)
	}
	if got := rep.metrics["layer.a_us"].Value; got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	addMedian(rep, "layer.empty_us", nil, "us")
	addRatio(rep, "layer.empty_ratio", 0, 0, "ratio", 0)
	if len(rep.failures) != 2 {
		t.Errorf("failures = %v, want one per empty layer", rep.failures)
	}
}

func TestGitHeadReadsLooseAndPackedRefs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs with: peeled fully-peeled sorted\n"+
		"1111111111111111111111111111111111111111 refs/heads/dev\n"+
		"2222222222222222222222222222222222222222 refs/heads/main\n")
	if got := gitHead(dir); got != "2222222222222222222222222222222222222222" {
		t.Errorf("packed ref: gitHead = %q", got)
	}
	write("refs/heads/main", "3333333333333333333333333333333333333333\n")
	if got := gitHead(dir); got != "3333333333333333333333333333333333333333" {
		t.Errorf("loose ref: gitHead = %q", got)
	}
	if got := gitHead(filepath.Join(dir, "absent")); got != "" {
		t.Errorf("no repository: gitHead = %q", got)
	}
}
