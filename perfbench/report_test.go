package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0 = no tail
	}{
		{0, 0}, {10, 0}, {99, 0},
		{100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got, ok := tailPercentile(tc.n)
		if tc.want == 0 {
			if ok {
				t.Errorf("n=%d: got p%v, want no tail", tc.n, got)
			}
			continue
		}
		if !ok || got != tc.want {
			t.Errorf("n=%d: got p%v (ok=%v), want p%v", tc.n, got, ok, tc.want)
		}
		if beyond := tc.n - 1 - rank(got, tc.n); beyond < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond, want ≥ %d", tc.n, got, beyond, minBeyond)
		}
	}
}

func TestSummarizePrintsMedianTailAndCount(t *testing.T) {
	var xs []float64
	for i := 200; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100 || s.TailP != 95 || s.Tail != 190 || s.Max != 200 {
		t.Fatalf("summarize = %+v, want n=200 p50=100 p95=190 max=200", s)
	}
	if got := s.String(); got != "p50=100.000 p95=190.000 max=200.000 (n=200)" {
		t.Fatalf("String() = %q", got)
	}
	if xs[0] != 200 {
		t.Fatal("summarize reordered its input")
	}
	few := summarize([]float64{3, 1, 2})
	if few.TailP != 0 || !strings.Contains(few.String(), "n=3, too few samples for a tail") {
		t.Fatalf("three samples: %+v %q", few, few.String())
	}
}

func TestReportPrintsEveryMetricByNameAndUnit(t *testing.T) {
	rep := newReport()
	rep.attempted = 5
	rep.set("latency_p50_ms", 12.5, "ms", "note")
	rep.set("setup_s", 0.25, "s", "")
	rep.set("extra_only_in_table", 7, "count", "")
	var out bytes.Buffer
	if err := rep.write(&out, []string{"setup_s", "latency_p50_ms"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 table lines and the result:\n%s", len(lines), out.String())
	}
	for i, want := range [][]string{
		{"latency_p50_ms", "12.5", "ms", "note"},
		{"setup_s", "0.25", "s"},
		{"extra_only_in_table", "7", "count"},
	} {
		if f := strings.Fields(lines[i]); len(f) < len(want) || strings.Join(f[:len(want)], " ") != strings.Join(want, " ") {
			t.Errorf("line %d = %q, want fields %q", i, lines[i], want)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[3]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Attempted != 5 || res.Failed != 0 || len(res.Metrics) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if m := res.Metrics["latency_p50_ms"]; m.Value != 12.5 || m.Unit != "ms" {
		t.Fatalf("latency_p50_ms = %+v", m)
	}
	if _, ok := res.Metrics["extra_only_in_table"]; ok {
		t.Fatal("a metric outside the wanted list reached the result")
	}
}

// failedResult runs write and returns the parsed last line.
func failedResult(t *testing.T, rep *report, want []string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := rep.write(&out, want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

func TestFailedCheckTurnsIntoFailedRun(t *testing.T) {
	for name, mk := range map[string]func() *report{
		"check failed": func() *report {
			r := newReport()
			r.attempted = 10
			r.set("setup_s", 1, "s", "")
			r.fail("schedule infeasible")
			return r
		},
		"operation failed": func() *report {
			r := newReport()
			r.attempted, r.failed = 10, 2
			r.set("setup_s", 1, "s", "")
			return r
		},
		"metric missing": func() *report {
			r := newReport()
			r.attempted = 10
			return r
		},
		"metric not finite": func() *report {
			r := newReport()
			r.attempted = 10
			r.set("setup_s", math.NaN(), "s", "")
			return r
		},
		"nothing attempted": func() *report {
			r := newReport()
			r.set("setup_s", 1, "s", "")
			return r
		},
	} {
		t.Run(name, func(t *testing.T) {
			rep := mk()
			res, out := failedResult(t, rep, []string{"setup_s"})
			if res.Correct || len(res.Metrics) != 0 || res.Failed < 1 || res.Attempted < 1 {
				t.Fatalf("result = %+v, want a failed run without numbers", res)
			}
			if !strings.Contains(out, "CHECK FAILED:") {
				t.Fatalf("the failure is not printed:\n%s", out)
			}
			if rep.ok() {
				t.Fatal("report still ok")
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "plan", "--seconds", "0"},
		{"--workload", "plan", "--trace", "2"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%q) = 0, want a failure", args)
		}
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps the benchmark's metric lists
// and BENCHMARK.json at the repository root in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []spec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	if !equalSpecs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, perfbench reports %v", e2e, endToEnd)
	}
	if !equalSpecs(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, perfbench reports %v", layer, perLayer)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads = %v, perfbench has %v", wl, workloadNames())
	}
}

func equalSpecs(a, b []spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parents := []interval{{at(0), at(100)}, {at(200), at(250)}}
	children := []interval{
		{at(10), at(30)},   // inside the first parent
		{at(90), at(120)},  // sticks out of the first parent: 10 ms of it count
		{at(150), at(190)}, // between parents
		{at(210), at(220)}, // inside the second parent
	}
	// (100 − 20 − 10) + (50 − 10)
	if got, want := selfTime(parents, children), 110*time.Millisecond; got != want {
		t.Fatalf("selfTime = %v, want %v", got, want)
	}
}
