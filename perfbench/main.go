// Command perfbench is the repository's benchmark: it runs one named
// workload against the code it was built from and prints every metric
// by name and unit, then one JSON result line.
//
//	bash perfbench/run.sh --workload plan --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md in this directory for why each exists):
//
//	plan          offline metis.Solve on B4, K=1000 and K=100 instances
//	serve-steady  metisd on B4 under open-loop load well inside capacity
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer table. Every run checks the
// program's outputs; a run that fails a check prints the failure, a
// result with "correct": false and no metrics, and exits 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// spec names one reported metric and its unit. The lists mirror
// BENCHMARK.json at the repository root (a test keeps them in step).
type spec struct {
	Name string
	Unit string
}

// endToEnd is what a user of each path sees; every workload reports
// every one of them (README.md maps each to its per-workload meaning).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"profit", "profit"},
	{"rss_mb", "MiB"},
}

// perLayer is the traced run's table. A layer a workload does not
// exercise reports 0.
var perLayer = []spec{
	{"sched.instance_ms", "ms"},
	{"lp.iters_per_solve", "count"},
	{"lp.iters_per_tick", "count"},
	{"lp.ns_per_iter", "ns"},
	{"lp.lu.factors", "count"},
	{"lp.lu.updates", "count"},
	{"lp.warm.hit_ratio", "ratio"},
	{"lp.dual_cold_starts", "count"},
	{"lp.degenerate_share", "ratio"},
	{"maa.self_ms", "ms"},
	{"taa.self_ms", "ms"},
	{"core.round_ms", "ms"},
	{"core.rounds", "count"},
	{"core.stall_rounds", "count"},
	{"taa.walk_steps", "count"},
	{"api.solve_maa_ms", "ms"},
	{"api.solve_taa_ms", "ms"},
	{"core.replan_complete_ratio", "ratio"},
	{"core.replan.fallbacks", "count"},
	{"spm.session.cold_resolves", "count"},
	{"serve.tick_p50_ms", "ms"},
	{"serve.tick_p99_ms", "ms"},
	{"serve.batch_p50", "count"},
	{"serve.solve_ms", "ms"},
	{"serve.solve_us_per_req", "us"},
	{"serve.tick_self_ms", "ms"},
	{"serve.decisions_per_busy_s", "1/s"},
	{"serve.overruns", "count"},
	{"serve.degraded_epochs", "count"},
	{"serve.expired_share", "ratio"},
	{"http.batch_post_p50_ms", "ms"},
	{"http.batch_post_p99_ms", "ms"},
	{"http.ack_p99_ms", "ms"},
	{"http.read_p99_ms", "ms"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.fsyncs_per_s", "1/s"},
	{"wal.bytes_per_decision", "B"},
	{"gen.late_p99_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
}

// layerMetrics holds a traced run's per-layer figures by name.
type layerMetrics map[string]float64

// report sets every per-layer metric, 0 for layers this workload left
// idle, and rejects names outside the per-layer list.
func (l layerMetrics) report(rep *report) {
	known := map[string]bool{}
	for _, s := range perLayer {
		known[s.Name] = true
		rep.set(s.Name, l[s.Name], s.Unit, "")
	}
	for name := range l {
		if !known[name] {
			rep.fail("per-layer metric %s is not in the per-layer list", name)
		}
	}
}

// names lists the metric names of specs.
func names(specs []spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	metisd   string
	work     string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"plan":         runPlan,
	"serve-steady": runServeSteady,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		opt   options
		trace int
	)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer table")
	fs.StringVar(&opt.metisd, "metisd", "", "metisd binary built from the same checkout (serve-steady)")
	fs.StringVar(&opt.work, "work", ".bench_build/work", "scratch directory for daemon state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	opt.trace = trace == 1

	rep := newReport()
	if err := runner(opt, rep); err != nil {
		rep.fail("%s: %v", opt.workload, err)
	}
	want := names(endToEnd)
	if opt.trace {
		want = names(perLayer)
	}
	if err := rep.write(os.Stdout, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.ok() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// procStatusMiB reads one memory figure (such as "VmHWM:", the peak
// resident set, or "VmRSS:") from /proc/<pid>/status in MiB; pid
// "self" is the benchmark process itself.
func procStatusMiB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status %s %w", pid, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}
