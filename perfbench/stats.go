package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs and how many
// samples lie strictly above its rank. xs need not be sorted. The
// beyond count is what lets a report say whether a tail percentile
// rests on enough samples: a p99 of 500 samples has only five beyond
// it, a p99 of 100k has a thousand.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank median.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// histogram counts latencies in log-spaced buckets 1% wide, so a
// whole run's population costs fixed memory: a run that kept every
// sample would grow its heap as it went and, through the collector's
// pacing, make its own later requests cheaper than its early ones.
type histogram struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histMin     = 0.01 // µs; smaller values land in the first bucket
	histGrowth  = 1.01
	histBuckets = 2400 // up to ~2.3e8 µs
)

var logGrowth = math.Log(histGrowth)

func (h *histogram) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile is the nearest-rank q-quantile, reported as the geometric
// middle of its bucket (within 0.5% of the exact sample), and the count
// of samples in buckets above it.
func (h *histogram) quantile(q float64) (v float64, beyond int) {
	if h.n == 0 {
		return math.NaN(), 0
	}
	rank := min(max(int(math.Ceil(q*float64(h.n))), 1), h.n)
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histMin * math.Pow(histGrowth, float64(i)+0.5), h.n - seen
		}
	}
	panic("unreachable: counts sum to n")
}

// ratio is a/b, or 0 when b is 0: per-layer ratios whose denominator
// is empty mean "nothing happened", which the report prints as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts operations attempted and failed. A failure is anything
// a caller of the system would see as not answered: a non-2xx status, a
// transport error, a batch item that answered with an error, or a
// simulation that did not complete.
type tally struct {
	attempted int
	failed    int
}

// response counts one HTTP exchange by its status.
func (t *tally) response(status int) {
	t.attempted++
	if status < 200 || status > 299 {
		t.failed++
	}
}

// transport counts exchanges that never produced a status.
func (t *tally) transport(n int) {
	t.attempted += n
	t.failed += n
}

// batchItems counts the items a batch carried and how many answered
// with a per-item error; the batch's own 200 does not hide them.
func (t *tally) batchItems(items, itemErrors int) {
	t.attempted += items
	t.failed += itemErrors
}

// sims counts simulations started and completed.
func (t *tally) sims(started, completed int) {
	t.attempted += started
	t.failed += started - completed
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// errorRate is failed/attempted (0 with nothing attempted).
func (t tally) errorRate() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one line of the human-readable table printed above the result
// line. samples < 0 marks a value that is not a sample statistic (a
// count, a ratio, a deterministic figure).
type row struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report collects one run's table, result metrics and gate failures.
type report struct {
	rows     []row
	metrics  map[string]metric
	failures []string
	tally    tally
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// add records a table row and, when inResult is set, the result metric
// of the same name.
func (r *report) add(name string, value float64, unit string, samples int, inResult bool) {
	r.rows = append(r.rows, row{name, value, unit, samples})
	if inResult {
		r.metrics[name] = metric{Value: value, Unit: unit}
	}
}

// fail records a correctness-gate failure; any one makes the run
// incorrect.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// write prints the table, the gate failures, and the result line, which
// is always last.
func (r *report) write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %16s  %-10s %s\n", "metric", "value", "unit", "samples")
	for _, rw := range r.rows {
		n := "-"
		if rw.samples >= 0 {
			n = fmt.Sprint(rw.samples)
		}
		fmt.Fprintf(&b, "%-36s %16.6g  %-10s %s\n", rw.name, rw.value, rw.unit, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(&b, "GATE FAILED: %s\n", f)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	line, err := json.Marshal(result{
		Correct:   len(r.failures) == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
