package core

import (
	"context"
	"os"
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

// driveParityTrace pushes one randomized arrival trace through an
// incremental replanner and the cold-refine comparator, asserting
// identical admit/reject decisions (per-request path choices) and
// identical profit after every replan. Failure messages carry the seed;
// rebuild the trace with stats.NewRNG(seed) and the same parameters.
func driveParityTrace(t *testing.T, seed int64, k int) {
	t.Helper()
	net := wan.SubB4()
	rng := stats.NewRNG(seed)
	pool := requestPool(t, net, k, seed)
	cfg := Config{Theta: 2, Seed: seed}
	inc := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	cold := NewReplanner(net, 12, 3, cfg, ReplanColdRefine)

	used := 0
	for epoch := 0; used < len(pool); epoch++ {
		batch := 1 + rng.Intn(7)
		if used+batch > len(pool) {
			batch = len(pool) - used
		}
		arrivals := pool[used : used+batch]
		used += batch
		if err := inc.Observe(arrivals); err != nil {
			t.Fatalf("seed %d epoch %d: incremental observe: %v", seed, epoch, err)
		}
		if err := cold.Observe(arrivals); err != nil {
			t.Fatalf("seed %d epoch %d: cold observe: %v", seed, epoch, err)
		}
		// Occasionally skip the replan (the policy's replan-every
		// cadence): both paths must tolerate multi-batch deltas.
		if rng.Float64() < 0.25 && used < len(pool) {
			continue
		}
		ri, err := inc.Replan(nil)
		if err != nil {
			t.Fatalf("seed %d epoch %d: incremental replan: %v", seed, epoch, err)
		}
		rc, err := cold.Replan(nil)
		if err != nil {
			t.Fatalf("seed %d epoch %d: cold replan: %v", seed, epoch, err)
		}
		if ri.Degraded || rc.Degraded {
			t.Fatalf("seed %d epoch %d: degraded replan without a deadline (inc=%v cold=%v)",
				seed, epoch, ri.Degraded, rc.Degraded)
		}
		for i := 0; i < inc.NumObserved(); i++ {
			ci, cc := ri.Schedule.Choice(i), rc.Schedule.Choice(i)
			if ci != cc {
				t.Fatalf("seed %d epoch %d: request %d decided differently: incremental path %d, cold rebuild path %d",
					seed, epoch, i, ci, cc)
			}
		}
		if ri.Profit != rc.Profit {
			t.Fatalf("seed %d epoch %d: profit diverged: incremental %.17g, cold rebuild %.17g",
				seed, epoch, ri.Profit, rc.Profit)
		}
		for e := range ri.Charged {
			if ri.Charged[e] != rc.Charged[e] {
				t.Fatalf("seed %d epoch %d: plan diverged on link %d: incremental %d, cold rebuild %d",
					seed, epoch, e, ri.Charged[e], rc.Charged[e])
			}
		}
	}
}

// TestReplannerIncrementalMatchesColdRebuild is the differential parity
// layer for the tentpole: over ≥100 randomized arrival traces, the
// incremental replanner (persistent warm BLSession, appended-column
// arrivals) and the from-scratch cold comparator must make identical
// admit/reject decisions and report identical profit after every replan.
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

// TestReplannerCycleWrapReset: Reset drops all cycle state and the next
// replan starts a fresh cycle whose decisions again agree across modes.
func TestReplannerCycleWrapReset(t *testing.T) {
	net := wan.SubB4()
	pool := requestPool(t, net, 40, 314)
	cfg := Config{Theta: 2, Seed: 314}
	inc := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	cold := NewReplanner(net, 12, 3, cfg, ReplanColdRefine)
	for _, rp := range []*Replanner{inc, cold} {
		if err := rp.Observe(pool[:25]); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Replan(nil); err != nil {
			t.Fatal(err)
		}
		rp.Reset()
		if rp.NumObserved() != 0 || rp.NumPlanned() != 0 {
			t.Fatalf("reset left state: observed %d planned %d", rp.NumObserved(), rp.NumPlanned())
		}
		if err := rp.Observe(pool[25:]); err != nil {
			t.Fatal(err)
		}
	}
	ri, err := inc.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inc.NumObserved(); i++ {
		if ri.Schedule.Choice(i) != rc.Schedule.Choice(i) {
			t.Fatalf("post-wrap decision diverged on request %d", i)
		}
	}
	if ri.Profit != rc.Profit {
		t.Fatalf("post-wrap profit diverged: %v vs %v", ri.Profit, rc.Profit)
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
// its greedy extension, undegraded, and Observe stops growing the
// session — until Reset re-arms the LP for the next cycle.
func TestReplannerSkipsLPAfterCutShort(t *testing.T) {
	net := wan.SubB4()
	pool := requestPool(t, net, 60, 4711)
	cfg := Config{Theta: 2, Seed: 4711}
	for _, mode := range []ReplanMode{ReplanIncremental, ReplanColdRefine} {
		rp := NewReplanner(net, 12, 3, cfg, mode)
		if err := rp.Observe(pool[:20]); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Replan(nil); err != nil {
			t.Fatal(err)
		}
		if rp.LPCutShort() {
			t.Fatalf("mode %d: a replan without a deadline marked the cycle cut short", mode)
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
			t.Fatalf("mode %d: cut-short replan: %v", mode, err)
		}
		if !cut.Degraded || !rp.LPCutShort() {
			t.Fatalf("mode %d: cut-short replan degraded=%v, mark=%v; want both", mode, cut.Degraded, rp.LPCutShort())
		}
		if rp.sess != nil {
			t.Fatalf("mode %d: cut-short replan kept its BL session", mode)
		}
		prior := rp.IncumbentChoices()

		// Observe no longer feeds a session.
		if err := rp.Observe(pool[30:45]); err != nil {
			t.Fatal(err)
		}
		if rp.sess != nil {
			t.Fatalf("mode %d: Observe rebuilt the session after the cycle was cut short", mode)
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
			t.Fatalf("mode %d: skipped replan: %v", mode, err)
		}
		if d := obs.Snapshot()["lp.solves"] - solves; d != 0 {
			t.Fatalf("mode %d: replan after a cut-short one ran %v LP solves, want 0", mode, d)
		}
		if d := cReplanLPSkips.Value() - skips; d != 1 {
			t.Fatalf("mode %d: core.replan.lp_skips moved by %d, want 1", mode, d)
		}
		if got.Degraded {
			t.Fatalf("mode %d: skipped replan reported degraded (%v)", mode, got.Cause)
		}
		if got.Profit != wantProfit {
			t.Fatalf("mode %d: skipped replan profit %.17g, want %.17g", mode, got.Profit, wantProfit)
		}
		for i := 0; i < rp.NumObserved(); i++ {
			if got.Schedule.Choice(i) != want.Choice(i) {
				t.Fatalf("mode %d: request %d on path %d, want %d", mode, i, got.Schedule.Choice(i), want.Choice(i))
			}
		}

		// The cycle wrap re-arms the LP.
		rp.Reset()
		if rp.LPCutShort() {
			t.Fatalf("mode %d: Reset kept the cut-short mark", mode)
		}
		if err := rp.Observe(pool[45:]); err != nil {
			t.Fatal(err)
		}
		solves = obs.Snapshot()["lp.solves"]
		if _, err := rp.Replan(context.Background()); err != nil {
			t.Fatal(err)
		}
		if obs.Snapshot()["lp.solves"] == solves {
			t.Fatalf("mode %d: first replan of a new cycle ran no LP", mode)
		}
		if mode == ReplanIncremental && rp.sess == nil {
			t.Fatal("first replan of a new cycle built no session")
		}
	}
}
