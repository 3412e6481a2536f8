package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// tailLadder is the set of percentiles a tail is chosen from, highest
// last. A timing is reported as its median plus the highest of these
// that still has at least minBeyond samples above it.
var tailLadder = []float64{90, 95, 99, 99.9}

// minBeyond is the number of samples a reported tail percentile must
// have beyond it.
const minBeyond = 10

// rank returns the 0-based index of percentile p (0 < p ≤ 100) in n
// sorted samples, by the nearest-rank rule. The small offset keeps a
// rank that is a whole number in exact arithmetic (99.9% of 10,000)
// from rounding up.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or false when n is too small for
// any of them.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-1-rank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// timing summarizes one set of latency samples in milliseconds.
type timing struct {
	N     int
	P50   float64
	TailP float64 // the tail percentile, 0 when there are too few samples
	Tail  float64
	Max   float64
}

// summarize sorts a copy of the samples and picks the median and tail.
func summarize(samples []float64) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	t := timing{N: n, P50: xs[rank(50, n)], Max: xs[n-1]}
	if p, ok := tailPercentile(n); ok {
		t.TailP, t.Tail = p, xs[rank(p, n)]
	}
	return t
}

// percentile returns percentile p of the samples (nearest rank), or 0
// for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return xs[rank(p, len(xs))]
}

// String renders the timing as "p50=… p99=… (n=…)".
func (t timing) String() string {
	if t.TailP == 0 {
		return fmt.Sprintf("p50=%.3f max=%.3f (n=%d, too few samples for a tail)", t.P50, t.Max, t.N)
	}
	return fmt.Sprintf("p50=%.3f p%s=%.3f max=%.3f (n=%d)", t.P50, trimFloat(t.TailP), t.Tail, t.Max, t.N)
}

func trimFloat(v float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0") }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome: the metrics it measured, the work
// it attempted and every failed check.
type report struct {
	metrics   map[string]metric
	order     []string
	notes     map[string]string
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric with its unit and an optional human-readable
// note printed beside it.
func (r *report) set(name string, value float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ok reports whether every check passed.
func (r *report) ok() bool { return len(r.problems) == 0 }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable table (every metric by name, value
// and unit, then any failed check) and, as the last line, the JSON
// result. want names the metrics the result must carry: a run missing
// one of them, or failing any check, reports the failure instead of
// numbers.
func (r *report) write(w io.Writer, want []string) error {
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("%-34s %14.6g %-8s", name, m.Value, m.Unit)
		if note := r.notes[name]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	out := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			r.fail("metric %s was not measured", name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", name, m.Value)
			continue
		}
		out.Metrics[name] = m
	}
	if r.attempted < 1 {
		r.fail("no work was attempted")
	}
	if r.failed > 0 {
		r.fail("%d of %d operations failed", r.failed, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	if !r.ok() {
		out.Correct = false
		out.Metrics = map[string]metric{}
		if out.Attempted < 1 {
			out.Attempted = 1
		}
		if out.Failed < 1 {
			out.Failed = 1
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
