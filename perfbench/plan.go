package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"metis"
	"metis/internal/obs"
	"metis/internal/spm"
)

// The plan workload: offline metis.Solve with the default Config on B4
// over an instance list drawn from the seed — paper-default K=1000
// instances, whose LPs have thousands of rows, and K=100 instances,
// whose LPs fit in cache so per-solve overheads dominate. Solve times
// vary a lot between instances (K=1000: 0.7–1.8 s), so a run solves
// many distinct instances once rather than a few many times.
const (
	planBigK     = 1000
	planSmallK   = 100
	planSetupRep = 3 // set-ups per run; setup_s is their median
)

// planSizes returns how many K=1000 and K=100 instances a run of the
// given length solves. The counts depend on --seconds alone, never on
// speed, so a run's sample counts (and its tail percentile) are fixed.
func planSizes(seconds int) (big, small int) {
	return max(seconds*3/4, 3), max(3*seconds, 50)
}

// planInstance is one solve of the list.
type planInstance struct {
	k    int
	seed int64
	inst *metis.Instance
}

// planOutcome is what one solve must repeat exactly on every pass.
type planOutcome struct {
	profit float64
	iters  float64
}

// buildPlanList generates the instance list for seed: request
// generation plus candidate-path enumeration. msInstance receives the
// perfbench-timed metis.NewInstance calls of the K=1000 instances.
func buildPlanList(seed int64, big, small int, msInstance *[]float64) ([]planInstance, error) {
	net := metis.B4()
	var list []planInstance
	add := func(k int, s int64) error {
		reqs, err := metis.GenerateWorkload(net, k, s)
		if err != nil {
			return fmt.Errorf("generate K=%d seed %d: %w", k, s, err)
		}
		t0 := time.Now()
		inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
		if err != nil {
			return fmt.Errorf("instance K=%d seed %d: %w", k, s, err)
		}
		if k == planBigK {
			*msInstance = append(*msInstance, ms(time.Since(t0)))
		}
		list = append(list, planInstance{k: k, seed: s, inst: inst})
		return nil
	}
	base := seed * 10000
	for i := 0; i < big; i++ {
		if err := add(planBigK, base+int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < small; i++ {
		if err := add(planSmallK, base+5000+int64(i)); err != nil {
			return nil, err
		}
	}
	return list, nil
}

// planRunner solves instances, checks every schedule, and holds each
// instance's first outcome so later passes must repeat it.
type planRunner struct {
	rep   *report
	first map[int]planOutcome
}

// solve runs metis.Solve on list[i] under cfg, checks the result and
// returns its wall time.
func (p *planRunner) solve(list []planInstance, i int, cfg metis.Config) time.Duration {
	pi := list[i]
	p.rep.attempted++
	iters0 := obs.Snapshot()["lp.iters"]
	t0 := time.Now()
	res, err := metis.Solve(pi.inst, cfg)
	d := time.Since(t0)
	if err != nil {
		p.rep.failed++
		p.rep.fail("K=%d seed %d: solve: %v", pi.k, pi.seed, err)
		return d
	}
	what := fmt.Sprintf("K=%d seed %d", pi.k, pi.seed)
	bad := res.Degraded
	if bad {
		p.rep.fail("%s: solve degraded without a deadline", what)
	}
	if err := spm.CheckFeasible(res.Schedule, res.Charged); err != nil {
		bad = true
		p.rep.fail("%s: schedule infeasible against its purchased capacities: %v", what, err)
	}
	if err := spm.CheckProfit(res.Schedule, res.Profit, 1e-6*math.Max(1, math.Abs(res.Profit))); err != nil {
		bad = true
		p.rep.fail("%s: %v", what, err)
	}
	out := planOutcome{profit: res.Profit, iters: obs.Snapshot()["lp.iters"] - iters0}
	if prev, seen := p.first[i]; !seen {
		p.first[i] = out
	} else if prev != out {
		bad = true
		p.rep.fail("%s: not deterministic: profit %v / %v LP iterations, first pass gave %v / %v",
			what, out.profit, out.iters, prev.profit, prev.iters)
	}
	if bad {
		p.rep.failed++
	}
	return d
}

// runPlan measures the plan workload.
func runPlan(opt options, rep *report) error {
	big, small := planSizes(opt.seconds)
	var setups, msInstance []float64
	var list []planInstance
	for r := 0; r < planSetupRep; r++ {
		t0 := time.Now()
		l, err := buildPlanList(opt.seed, big, small, &msInstance)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		list = l
	}
	rep.set("setup_s", percentile(setups, 50), "s", fmt.Sprintf("instance generation + path enumeration, median of %d", len(setups)))

	p := &planRunner{rep: rep, first: map[int]planOutcome{}}
	if opt.trace {
		return planTraced(opt, rep, p, list, msInstance)
	}

	// Two passes over the K=100 instances around one over the K=1000
	// ones, then the first K=1000 instance again: every instance solved
	// twice must repeat its profit and LP iteration count exactly.
	var smallMS []float64
	var rss []rssSample
	var bigTime time.Duration
	stopRSS := sampleRSS(os.Getpid(), &rss)
	for pass := 0; pass < 3; pass++ {
		for i, pi := range list {
			switch {
			case pi.k == planSmallK && pass != 1:
				smallMS = append(smallMS, ms(p.solve(list, i, metis.Config{})))
			case pi.k == planBigK && pass == 1:
				bigTime += p.solve(list, i, metis.Config{})
			}
		}
	}
	p.solve(list, 0, metis.Config{})
	stopRSS()

	smallT := summarize(smallMS)
	if smallT.TailP == 0 {
		rep.fail("%d K=%d solves are too few for a tail percentile", smallT.N, planSmallK)
	}
	profit := 0.0
	for i := range list {
		profit += p.first[i].profit
	}
	perBig := bigTime.Seconds() / float64(big)
	rep.set("latency_p50_ms", smallT.P50, "ms", "median K=100 metis.Solve; "+smallT.String())
	rep.set("latency_tail_ms", smallT.Tail, "ms", fmt.Sprintf("p%s K=100 metis.Solve", trimFloat(smallT.TailP)))
	rep.set("capacity_rps", planBigK/perBig, "1/s", fmt.Sprintf("requests planned per second over %d K=1000 solves", big))
	rep.set("profit", profit, "profit", fmt.Sprintf("Σ profit over the %d-instance list", len(list)))
	rssT := summarize(rssBetween(rss, time.Time{}, time.Now()))
	rep.set("rss_mb", rssT.P50, "MiB", fmt.Sprintf("perfbench (it runs the solver) resident set while solving, median of %d samples", rssT.N))
	peak, err := procStatusMiB("self", "VmHWM:")
	if err != nil {
		return err
	}
	rep.set("rss_peak_mb", peak, "MiB", "perfbench peak resident set (VmHWM)")
	rep.set("plan_k1000_s", perBig, "s", "mean wall time per K=1000 metis.Solve")
	rep.set("plan_k100_ms", smallT.P50, "ms", "")
	rep.set("plan_profit", profit, "profit", "")
	rep.set("fail_share", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", "")
	return nil
}

// planTraced is the traced plan run: the per-layer table, from the
// obs counters over one pass of the list, the program's spans under an
// in-memory Config.Tracer and the benchmark's spans around each public
// call, plus the traced ÷ untraced ratio of the headline metric.
func planTraced(opt options, rep *report, p *planRunner, list []planInstance, msInstance []float64) error {
	var untracedMS []float64
	for i, pi := range list {
		if pi.k == planSmallK {
			untracedMS = append(untracedMS, ms(p.solve(list, i, metis.Config{})))
		}
	}
	untraced := summarize(untracedMS)

	tr := &memTracer{}
	cfg := metis.Config{Tracer: tr}
	before := obs.Snapshot()
	passSpan := tr.begin("plan.pass", 0)
	var tracedMS []float64
	for i, pi := range list {
		id := tr.begin("metis.Solve", passSpan)
		d := p.solve(list, i, cfg)
		tr.end(id)
		if pi.k == planSmallK {
			tracedMS = append(tracedMS, ms(d))
		}
	}
	tr.end(passSpan)
	after := obs.Snapshot()
	traced := summarize(tracedMS)

	delta := func(k string) float64 { return after[k] - before[k] }
	iters := delta("lp.iters")
	lpSpans := tr.spansNamed("lp.solve")
	rounds := tr.spansNamed("metis.round")
	var roundMS []float64
	for _, r := range rounds {
		roundMS = append(roundMS, ms(r.end.Sub(r.start)))
	}

	var maaMS, taaMS []float64
	for _, pi := range list {
		if pi.k != planSmallK {
			continue
		}
		p.rep.attempted++
		t0 := time.Now()
		m, err := metis.SolveMAA(pi.inst, 1, opt.seed)
		maaMS = append(maaMS, ms(time.Since(t0)))
		if err == nil {
			err = spm.CheckFeasible(m.Schedule, m.Charged)
		}
		if err != nil {
			p.rep.failed++
			p.rep.fail("K=%d seed %d: SolveMAA: %v", pi.k, pi.seed, err)
			continue
		}
		p.rep.attempted++
		t0 = time.Now()
		t, err := metis.SolveTAA(pi.inst, m.Charged)
		taaMS = append(taaMS, ms(time.Since(t0)))
		if err == nil {
			err = spm.CheckFeasible(t.Schedule, m.Charged)
		}
		if err != nil {
			p.rep.failed++
			p.rep.fail("K=%d seed %d: SolveTAA: %v", pi.k, pi.seed, err)
		}
	}

	solves := 0.0
	for _, sp := range tr.benchSpansNamed("metis.Solve") {
		if sp.Parent == passSpan {
			solves++
		}
	}
	layers := layerMetrics{
		"sched.instance_ms":         percentile(msInstance, 50),
		"lp.iters_per_solve":        iters / solves,
		"lp.ns_per_iter":            ratio(float64(total(lpSpans).Nanoseconds()), iters),
		"lp.lu.factors":             delta("lp.lu.factors"),
		"lp.lu.updates":             delta("lp.lu.updates"),
		"lp.warm.hit_ratio":         ratio(delta("lp.warm.hits"), delta("lp.warm.attempts")),
		"lp.dual_cold_starts":       delta("lp.pricing.dual_cold_starts"),
		"lp.degenerate_share":       ratio(delta("lp.degenerate_pivots"), delta("lp.pivots")),
		"maa.self_ms":               ms(selfTime(tr.spansNamed("maa.solve"), lpSpans)) / solves,
		"taa.self_ms":               ms(selfTime(tr.spansNamed("taa.solve"), lpSpans)) / solves,
		"core.round_ms":             percentile(roundMS, 50),
		"core.rounds":               delta("core.rounds"),
		"core.stall_rounds":         delta("core.stall_rounds"),
		"taa.walk_steps":            delta("taa.walk_steps"),
		"api.solve_maa_ms":          percentile(maaMS, 50),
		"api.solve_taa_ms":          percentile(taaMS, 50),
		"core.replan.fallbacks":     delta("core.replan.fallbacks"),
		"spm.session.cold_resolves": delta("spm.session.cold_resolves"),
		"obs.trace_overhead":        ratio(traced.P50, untraced.P50),
	}
	layers.report(rep)
	rep.set("plan.traced_pass_s", ms(tr.benchSpansNamed("plan.pass")[0].Dur)/1e3, "s",
		fmt.Sprintf("one traced pass: %d metis.Solve calls, %d lp.solve spans", int(solves), len(lpSpans)))
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
