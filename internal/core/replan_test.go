package core

import (
	"context"
	"os"
	"reflect"
	"testing"

	"metis/internal/demand"
	"metis/internal/fault"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// requestPool generates k requests on net for the replanner traces.
func requestPool(t *testing.T, net *wan.Network, k int, seed int64) []demand.Request {
	t.Helper()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// restoreFromDurable builds a second replanner from rp's durable state
// alone — Observed, IncumbentChoices, NumPlanned, RelaxedGuide(0) and
// LPCutShort — exactly as the serve layer's snapshot restore does.
func restoreFromDurable(t *testing.T, rp *Replanner) *Replanner {
	t.Helper()
	out := NewReplanner(rp.net, rp.slots, rp.paths, rp.cfg, rp.mode)
	if err := out.Observe(rp.Observed()); err != nil {
		t.Fatalf("restore observe: %v", err)
	}
	if choices := rp.IncumbentChoices(); choices != nil {
		if err := out.RestoreIncumbent(choices, rp.NumPlanned()); err != nil {
			t.Fatalf("restore incumbent: %v", err)
		}
	}
	if err := out.RestoreRelaxedGuide(rp.RelaxedGuide(0)); err != nil {
		t.Fatalf("restore guide: %v", err)
	}
	out.RestoreLPCutShort(rp.LPCutShort())
	return out
}

// replanMaybeCut runs one replan; when cut is set, the replan's first
// LP solve is canceled (the cut-short path).
func replanMaybeCut(rp *Replanner, cut bool) (*Result, error) {
	if !cut {
		return rp.Replan(nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fault.Enable("lp.solve", fault.Spec{Kind: fault.KindCancel, Cancel: cancel})
	defer fault.Reset()
	return rp.Replan(ctx)
}

// driveParityTrace pushes one randomized arrival trace through an
// incremental replanner and, before every replan, through a second
// replanner restored from the first one's durable state alone. Both
// must return identical plans, profits, schedules and relaxation
// guides: no solver state outside the durable image may influence a
// decision. About one replan in ten is cut short inside its LP (the
// same cut on both sides), so the cut-short mark is exercised as
// durable state too. Failure messages carry the seed; rebuild the
// trace with stats.NewRNG(seed) and the same parameters.
func driveParityTrace(t *testing.T, seed int64, k int) {
	t.Helper()
	net := wan.SubB4()
	rng := stats.NewRNG(seed)
	pool := requestPool(t, net, k, seed)
	cfg := Config{Theta: 2, Seed: seed}
	live := NewReplanner(net, 12, 3, cfg, ReplanIncremental)

	used := 0
	for epoch := 0; used < len(pool); epoch++ {
		batch := 1 + rng.Intn(7)
		if used+batch > len(pool) {
			batch = len(pool) - used
		}
		arrivals := pool[used : used+batch]
		used += batch
		if err := live.Observe(arrivals); err != nil {
			t.Fatalf("seed %d epoch %d: observe: %v", seed, epoch, err)
		}
		// Occasionally skip the replan (the policy's replan-every
		// cadence): the restore must cover multi-batch deltas.
		if rng.Float64() < 0.25 && used < len(pool) {
			continue
		}
		cut := rng.Float64() < 0.1
		restored := restoreFromDurable(t, live)
		rl, err := replanMaybeCut(live, cut)
		if err != nil {
			t.Fatalf("seed %d epoch %d: live replan: %v", seed, epoch, err)
		}
		rr, err := replanMaybeCut(restored, cut)
		if err != nil {
			t.Fatalf("seed %d epoch %d: restored replan: %v", seed, epoch, err)
		}
		if rl.Degraded != rr.Degraded || (!cut && rl.Degraded) {
			t.Fatalf("seed %d epoch %d (cut %v): degraded live=%v restored=%v",
				seed, epoch, cut, rl.Degraded, rr.Degraded)
		}
		for i := 0; i < live.NumObserved(); i++ {
			cl, cr := rl.Schedule.Choice(i), rr.Schedule.Choice(i)
			if cl != cr {
				t.Fatalf("seed %d epoch %d: request %d decided differently: live path %d, restored path %d",
					seed, epoch, i, cl, cr)
			}
		}
		if rl.Profit != rr.Profit {
			t.Fatalf("seed %d epoch %d: profit diverged: live %.17g, restored %.17g",
				seed, epoch, rl.Profit, rr.Profit)
		}
		for e := range rl.Charged {
			if rl.Charged[e] != rr.Charged[e] {
				t.Fatalf("seed %d epoch %d: plan diverged on link %d: live %d, restored %d",
					seed, epoch, e, rl.Charged[e], rr.Charged[e])
			}
		}
		if !reflect.DeepEqual(live.RelaxedGuide(0), restored.RelaxedGuide(0)) {
			t.Fatalf("seed %d epoch %d: relaxation guide diverged", seed, epoch)
		}
		if live.LPCutShort() != restored.LPCutShort() {
			t.Fatalf("seed %d epoch %d: cut-short mark diverged: live %v, restored %v",
				seed, epoch, live.LPCutShort(), restored.LPCutShort())
		}
	}
}

// TestReplannerIncrementalMatchesColdRebuild is the restore
// differential: over ≥100 randomized arrival traces, a long-lived
// incremental replanner and one rebuilt cold from its durable state
// before every replan must make identical admit/reject decisions and
// report identical profit, plan and relaxation guide.
func TestReplannerIncrementalMatchesColdRebuild(t *testing.T) {
	traces := 100
	if testing.Short() {
		traces = 25
	}
	for trace := 0; trace < traces; trace++ {
		seed := int64(9000 + trace)
		driveParityTrace(t, seed, 24+trace%17)
	}
}

// TestReplannerParityFullScale is the METIS_PARITY_FULL-gated variant:
// fewer traces, service-scale workloads.
func TestReplannerParityFullScale(t *testing.T) {
	if os.Getenv("METIS_PARITY_FULL") == "" {
		t.Skip("set METIS_PARITY_FULL=1 to run the full-scale parity sweep")
	}
	for trace := 0; trace < 10; trace++ {
		seed := int64(77000 + trace)
		driveParityTrace(t, seed, 400)
	}
}

// TestReplannerCycleWrapReset: Reset drops all cycle state, so a reset
// replanner decides the next cycle exactly like a fresh one.
func TestReplannerCycleWrapReset(t *testing.T) {
	net := wan.SubB4()
	pool := requestPool(t, net, 40, 314)
	cfg := Config{Theta: 2, Seed: 314}
	reset := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	fresh := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	if err := reset.Observe(pool[:25]); err != nil {
		t.Fatal(err)
	}
	if _, err := reset.Replan(nil); err != nil {
		t.Fatal(err)
	}
	reset.Reset()
	if reset.NumObserved() != 0 || reset.NumPlanned() != 0 || reset.IncumbentChoices() != nil || reset.RelaxedGuide(0) != nil {
		t.Fatalf("reset left state: observed %d planned %d", reset.NumObserved(), reset.NumPlanned())
	}
	for _, rp := range []*Replanner{reset, fresh} {
		if err := rp.Observe(pool[25:]); err != nil {
			t.Fatal(err)
		}
	}
	rr, err := reset.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fresh.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reset.NumObserved(); i++ {
		if rr.Schedule.Choice(i) != rf.Schedule.Choice(i) {
			t.Fatalf("post-wrap decision diverged on request %d", i)
		}
	}
	if rr.Profit != rf.Profit {
		t.Fatalf("post-wrap profit diverged: %v vs %v", rr.Profit, rf.Profit)
	}
	if !reflect.DeepEqual(reset.RelaxedGuide(0), fresh.RelaxedGuide(0)) {
		t.Fatal("post-wrap relaxation guide diverged")
	}
}

// TestReplannerSnapshotRoundTrip: Observed + IncumbentChoices +
// NumPlanned fully determine a replanner's future decisions — a
// restored replanner replans identically to the uninterrupted one.
func TestReplannerSnapshotRoundTrip(t *testing.T) {
	net := wan.SubB4()
	pool := requestPool(t, net, 50, 271)
	cfg := Config{Theta: 2, Seed: 271}
	orig := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	if err := orig.Observe(pool[:30]); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Replan(nil); err != nil {
		t.Fatal(err)
	}
	if err := orig.Observe(pool[30:40]); err != nil {
		t.Fatal(err)
	}

	// Snapshot mid-cycle (after a replan, with 10 unplanned arrivals).
	seen := orig.Observed()
	choices := orig.IncumbentChoices()
	planned := orig.NumPlanned()

	restored := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	if err := restored.Observe(seen); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreIncumbent(choices, planned); err != nil {
		t.Fatal(err)
	}

	for _, rp := range []*Replanner{orig, restored} {
		if err := rp.Observe(pool[40:]); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := orig.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := restored.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orig.NumObserved(); i++ {
		if ro.Schedule.Choice(i) != rr.Schedule.Choice(i) {
			t.Fatalf("restored replanner decided request %d differently: %d vs %d",
				i, ro.Schedule.Choice(i), rr.Schedule.Choice(i))
		}
	}
	if ro.Profit != rr.Profit {
		t.Fatalf("restored replanner profit %v, original %v", rr.Profit, ro.Profit)
	}
}

// TestReplannerSkipsLPAfterCutShort pins the cut-short rule: once a
// refinement's LP stage expires, the rest of the billing cycle runs no
// LP — later refinements return the better of the lifted incumbent and
// its greedy extension, undegraded — until Reset re-arms the LP for the
// next cycle.
func TestReplannerSkipsLPAfterCutShort(t *testing.T) {
	net := wan.SubB4()
	pool := requestPool(t, net, 60, 4711)
	cfg := Config{Theta: 2, Seed: 4711}
	rp := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	if err := rp.Observe(pool[:20]); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Replan(nil); err != nil {
		t.Fatal(err)
	}
	if rp.LPCutShort() {
		t.Fatal("a replan without a deadline marked the cycle cut short")
	}

	// Cut the next refinement short inside its first LP solve.
	if err := rp.Observe(pool[20:30]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fault.Enable("lp.solve", fault.Spec{Kind: fault.KindCancel, Cancel: cancel})
	cut, err := rp.Replan(ctx)
	fault.Reset()
	cancel()
	if err != nil {
		t.Fatalf("cut-short replan: %v", err)
	}
	if !cut.Degraded || !rp.LPCutShort() {
		t.Fatalf("cut-short replan degraded=%v, mark=%v; want both", cut.Degraded, rp.LPCutShort())
	}
	prior := rp.IncumbentChoices()

	if err := rp.Observe(pool[30:45]); err != nil {
		t.Fatal(err)
	}

	// Independent expectation: the better of the lifted-and-pruned
	// incumbent and its pruned greedy extension.
	inc := sched.NewSchedule(rp.inst)
	for i, c := range prior {
		if c != sched.Declined {
			if err := inc.Assign(i, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	incProfit, buf := pruneUnprofitable(inc, nil)
	ext := inc.Clone()
	buf = greedyExtend(ext, buf)
	extProfit, _ := pruneUnprofitable(ext, buf)
	want, wantProfit := inc, incProfit
	if extProfit > wantProfit {
		want, wantProfit = ext, extProfit
	}

	solves, skips := obs.Snapshot()["lp.solves"], cReplanLPSkips.Value()
	got, err := rp.Replan(context.Background())
	if err != nil {
		t.Fatalf("skipped replan: %v", err)
	}
	if d := obs.Snapshot()["lp.solves"] - solves; d != 0 {
		t.Fatalf("replan after a cut-short one ran %v LP solves, want 0", d)
	}
	if d := cReplanLPSkips.Value() - skips; d != 1 {
		t.Fatalf("core.replan.lp_skips moved by %d, want 1", d)
	}
	if got.Degraded {
		t.Fatalf("skipped replan reported degraded (%v)", got.Cause)
	}
	if got.Profit != wantProfit {
		t.Fatalf("skipped replan profit %.17g, want %.17g", got.Profit, wantProfit)
	}
	for i := 0; i < rp.NumObserved(); i++ {
		if got.Schedule.Choice(i) != want.Choice(i) {
			t.Fatalf("request %d on path %d, want %d", i, got.Schedule.Choice(i), want.Choice(i))
		}
	}

	// The cycle wrap re-arms the LP.
	rp.Reset()
	if rp.LPCutShort() {
		t.Fatal("Reset kept the cut-short mark")
	}
	if err := rp.Observe(pool[45:]); err != nil {
		t.Fatal(err)
	}
	solves = obs.Snapshot()["lp.solves"]
	if _, err := rp.Replan(context.Background()); err != nil {
		t.Fatal(err)
	}
	if obs.Snapshot()["lp.solves"] == solves {
		t.Fatal("first replan of a new cycle ran no LP")
	}
}
