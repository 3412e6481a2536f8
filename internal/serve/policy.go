package serve

import (
	"context"
	"fmt"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/wan"
)

// Policy decides one epoch's arrival batch. inst holds the batch's
// requests (instance index k ↔ batch position k, windows already
// clamped to start no earlier than the deciding slot) and led is the
// cycle ledger the decision must respect. Decide returns an
// online.State seeded from the ledger whose schedule carries the
// accept/route choices; the Server commits accepted requests back into
// the ledger afterwards.
//
// Policies are invoked only from the Server's single epoch goroutine,
// so implementations may keep unsynchronized cross-epoch state (the
// Metis policy caches its capacity plan this way). A ctx expiry inside
// a solver surfaces as an error matching solvectx.ErrCanceled/
// ErrDeadline; the Server then degrades the epoch to the greedy
// fallback rather than stalling the tick loop.
type Policy interface {
	Name() string
	Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error)
	// Reset is called when the billing cycle wraps (the ledger has been
	// cleared); policies drop any cycle-scoped state.
	Reset()
}

// NewPolicy builds a policy by name:
//
//	greedy             — buy-as-you-go marginal-cost admission (online.Greedy)
//	taa                — per-epoch TAA admission into a fixed provisioned plan
//	metis              — periodic full Metis re-solve over the cycle's observed
//	                     workload to (re)plan capacity, TAA admission in between
//	metis-incremental  — same contract, but each replan runs one
//	                     refinement round of the carried incumbent (greedy
//	                     extension, cold BL relaxation, TAA) instead of
//	                     the full alternation
//
// plan provisions the taa policy (units per link; nil means admit only
// into capacity bought by earlier epochs). replanEvery is the metis
// policies' re-solve period in epochs (≤0 means every epoch).
func NewPolicy(name string, plan []int, replanEvery int, cfg core.Config) (Policy, error) {
	switch name {
	case "greedy", "":
		return GreedyPolicy{}, nil
	case "taa", "provisioned-taa":
		return &TAAPolicy{Plan: plan}, nil
	case "metis":
		if replanEvery <= 0 {
			replanEvery = 1
		}
		return &MetisPolicy{ReplanEvery: replanEvery, Config: cfg, Mode: core.ReplanFull}, nil
	case "metis-incremental", "metis-inc":
		if replanEvery <= 0 {
			replanEvery = 1
		}
		return &MetisPolicy{ReplanEvery: replanEvery, Config: cfg, Mode: core.ReplanIncremental}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (have: greedy, taa, metis, metis-incremental)", name)
	}
}

// replanBudgetFrac is the share of the remaining tick budget a metis
// replan may consume; the rest stays reserved for the admission pass.
// Admission costs ~50µs/request on the reference box, so at saturation
// (queue-limit-sized batches) the reservation must leave room for the
// whole claimed batch.
const replanBudgetFrac = 0.25

// seededState builds an online.State over inst carrying the ledger's
// committed loads and purchases.
func seededState(ctx context.Context, led *Ledger, inst *sched.Instance) (*online.State, error) {
	return online.NewStateAt(ctx, inst, led.Purchased(), led.Loads())
}

// allIndices returns [0, n).
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// GreedyPolicy is buy-as-you-go marginal-cost admission: each request
// is accepted on its cheapest-marginal-cost path iff its value exceeds
// the price of the extra units it forces. It never solves an LP, so a
// tick budget cannot expire inside it; it doubles as the Server's
// degradation fallback.
type GreedyPolicy struct{}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy" }

// Reset implements Policy.
func (GreedyPolicy) Reset() {}

// Decide implements Policy.
func (GreedyPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, _, slot int) (*online.State, error) {
	st, err := seededState(ctx, led, inst)
	if err != nil {
		return nil, err
	}
	if err := (online.Greedy{}).DecideBatch(st, slot, allIndices(inst.NumRequests())); err != nil {
		return nil, err
	}
	return st, nil
}

// TAAPolicy admits each epoch batch with the paper's BL-SPM machinery
// (TAA) against the residual of a provisioned capacity plan: revenue is
// maximized under what has already been bought, and nothing new is
// purchased beyond the plan.
type TAAPolicy struct {
	// Plan is the upfront per-link provision in units; nil admits only
	// into capacity purchased by earlier epochs.
	Plan []int
}

// Name implements Policy.
func (*TAAPolicy) Name() string { return "taa" }

// Reset implements Policy.
func (*TAAPolicy) Reset() {}

// Decide implements Policy.
func (p *TAAPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, _, slot int) (*online.State, error) {
	st, err := seededState(ctx, led, inst)
	if err != nil {
		return nil, err
	}
	plan := p.Plan
	if plan == nil {
		plan = led.Purchased()
	}
	if err := (online.ProvisionedTAA{Plan: plan}).DecideBatch(st, slot, allIndices(inst.NumRequests())); err != nil {
		return nil, err
	}
	return st, nil
}

// MetisPolicy periodically replans capacity over every request observed
// this cycle, and admits each epoch's batch with TAA against the plan's
// residual. The replan machinery is core.Replanner; Mode selects the
// strategy:
//
//   - core.ReplanFull re-solves the full Metis alternation from scratch
//     each time (the original policy behavior).
//   - core.ReplanIncremental carries the incumbent schedule across
//     epochs and runs one refinement round per replan instead of the
//     full alternation: a greedy extension over the arrivals, then a
//     cold BL relaxation of the observed workload rounded by TAA. The
//     relaxation also guides admission between replans. A refinement
//     LP error falls back to a full solve (the fallback-ladder
//     discipline).
//
// Replans run under the epoch's tick deadline: an overrun degrades to
// the best incumbent found so far instead of stalling the tick loop,
// and the previous plan is kept when the degraded replan found nothing.
// Across epochs the policy reuses the previous plan outright whenever
// no new requests have arrived, which skips the replan entirely.
type MetisPolicy struct {
	// ReplanEvery is the re-solve period in epochs (1 = every epoch).
	ReplanEvery int
	// Config parameterizes the re-solve (θ, τ, seeds, LP options).
	Config core.Config
	// Mode selects full re-solves or incremental refinement (default
	// core.ReplanFull).
	Mode core.ReplanMode

	rp         *core.Replanner
	plan       []int // current capacity plan
	lastReplan int   // epoch of the last replan attempt
	havePlan   bool
}

// Name implements Policy.
func (p *MetisPolicy) Name() string {
	if p.Mode == core.ReplanIncremental {
		return "metis-incremental"
	}
	return "metis"
}

// Reset implements Policy.
func (p *MetisPolicy) Reset() {
	if p.rp != nil {
		p.rp.Reset()
	}
	p.plan, p.havePlan, p.lastReplan = nil, false, 0
}

// Decide implements Policy.
func (p *MetisPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	// The replanner accumulates the cycle's workload; the plan it
	// produces is a whole-cycle provision, not a per-epoch one.
	if p.rp == nil {
		p.rp = core.NewReplanner(inst.Network(), inst.Slots(), inst.PathsPerRequest(), p.Config, p.Mode)
	}
	observeStart := time.Now()
	batch := make([]demand.Request, inst.NumRequests())
	for i := range batch {
		batch[i] = inst.Request(i)
	}
	if err := p.rp.Observe(batch); err != nil {
		return nil, fmt.Errorf("serve: metis replan: %w", err)
	}
	histObserve.Observe(millisSince(observeStart))

	due := !p.havePlan || epoch-p.lastReplan >= p.ReplanEvery
	if due && p.rp.NumObserved() > p.rp.NumPlanned() {
		p.lastReplan = epoch
		cReplans.Inc()
		// Reserve the tail of the tick budget for the admission pass:
		// the replan is an optimization, admission is the service. A
		// replan cut short returns its best incumbent (degraded) — it
		// must never starve DecideBatch into the greedy fallback.
		rctx, cancel := ctx, func() {}
		if ctx != nil {
			if dl, ok := ctx.Deadline(); ok {
				share := time.Duration(float64(time.Until(dl)) * replanBudgetFrac)
				rctx, cancel = context.WithTimeout(ctx, share)
			}
		}
		replanStart := time.Now()
		res, err := p.rp.Replan(rctx)
		cancel()
		histReplan.Observe(millisSince(replanStart))
		switch {
		case err == nil:
			// A degraded replan still returns its best incumbent; adopt
			// its plan — at worst the greedy seed's purchase. Charged may
			// alias the replanner's reusable buffer, so copy.
			p.plan = append(p.plan[:0], res.Charged...)
			p.havePlan = true
			if res.Degraded {
				cReplansDegraded.Inc()
			}
		case solvectx.Is(err):
			// The budget expired before any incumbent existed; keep the
			// previous plan (or none) and let TAA admit into it.
			cReplansDegraded.Inc()
		default:
			return nil, fmt.Errorf("serve: metis replan: %w", err)
		}
	}

	admitStart := time.Now()
	st, err := seededState(ctx, led, inst)
	if err != nil {
		return nil, err
	}
	plan := p.plan
	if plan == nil {
		plan = led.Purchased()
	}
	adm := online.ProvisionedTAA{Plan: plan}
	if p.Mode == core.ReplanIncremental {
		// The last refinement's relaxation already prices every request it
		// covered against the cycle plan. Handing it to admission skips
		// the per-batch cold LP
		// (the dominant tick cost at saturation). Positions the
		// relaxation has not covered yet (arrivals since the last
		// refinement, or a whole cycle right after a wrap) get zero
		// weight, which TAA treats as fractionally declined and recovers
		// through its greedy/augmentation stages. The zero-fill is
		// deliberate: incremental admission NEVER falls back to the cold
		// batch LP, so its cost stays bounded at saturation — an
		// unbounded admission solve under a tight tick budget is exactly
		// what degrades epochs.
		adm.Guide = p.rp.RelaxedGuide(p.rp.NumObserved() - inst.NumRequests())
		if adm.Guide == nil {
			adm.Guide = make([][]float64, inst.NumRequests())
		}
	}
	if err := adm.DecideBatch(st, slot, allIndices(inst.NumRequests())); err != nil {
		return nil, err
	}
	histAdmit.Observe(millisSince(admitStart))
	return st, nil
}

func millisSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}

// PolicyState is the snapshot image of the metis policies' cycle state:
// the observed workload, the incumbent schedule's path choices, the
// last relaxation, the cut-short mark and the adopted capacity plan.
// That is the replanner's whole state — it keeps no solver cache — so a
// restored policy decides exactly as the uninterrupted one would.
type PolicyState struct {
	Name       string           `json:"name"`
	Seen       []demand.Request `json:"seen,omitempty"`
	Incumbent  []int            `json:"incumbent,omitempty"`
	Planned    int              `json:"planned,omitempty"`
	Plan       []int            `json:"plan,omitempty"`
	HavePlan   bool             `json:"havePlan,omitempty"`
	LastReplan int              `json:"lastReplan,omitempty"`
	// RelaxedX is the last refinement's relaxation, aligned to Seen
	// (nil rows for requests it did not cover). It guides the admission
	// pass, so it must survive restore for post-restore decisions to
	// match an uninterrupted run exactly.
	RelaxedX [][]float64 `json:"relaxedX,omitempty"`
	// LPCutShort marks a cycle whose replan LP missed its budget: later
	// replans of the cycle skip the LP (core.Replanner.LPCutShort).
	LPCutShort bool `json:"lpCutShort,omitempty"`
}

// statefulPolicy is implemented by policies whose cycle state must
// survive snapshot/restore. restorePolicyState installs st only when
// it fits; otherwise it returns a *SnapshotError and changes nothing.
type statefulPolicy interface {
	policyState() *PolicyState
	restorePolicyState(st *PolicyState, net *wan.Network, slots, pathsPerRequest int) error
}

// replayPolicy is implemented by policies that participate in WAL
// recovery: ticks are *redone* from their logged outcomes (a budget-cut
// replan is not reproducible from inputs), so the policy catches up by
// observing each replayed batch and adopting the logged plan delta.
// After replay the seen workload, plan, replan clock and cut-short mark
// match the live run. The incumbent and the relaxation guide are not in
// the redo record; metis-incremental recovers them only from a
// snapshot, so its bit-identical failover needs per-op snapshots.
type replayPolicy interface {
	observeReplay(net *wan.Network, slots, pathsPerRequest int, batch []demand.Request) error
	applyReplayDelta(d *walPolicyDelta)
	replayDelta() *walPolicyDelta
}

func (p *MetisPolicy) observeReplay(net *wan.Network, slots, pathsPerRequest int, batch []demand.Request) error {
	if p.rp == nil {
		p.rp = core.NewReplanner(net, slots, pathsPerRequest, p.Config, p.Mode)
	}
	return p.rp.Observe(batch)
}

func (p *MetisPolicy) replayDelta() *walPolicyDelta {
	return &walPolicyDelta{
		Name:       p.Name(),
		Plan:       append([]int(nil), p.plan...),
		HavePlan:   p.havePlan,
		LastReplan: p.lastReplan,
		LPCutShort: p.rp != nil && p.rp.LPCutShort(),
	}
}

func (p *MetisPolicy) applyReplayDelta(d *walPolicyDelta) {
	if d.Name != p.Name() {
		return
	}
	p.plan = append([]int(nil), d.Plan...)
	if len(d.Plan) == 0 && !d.HavePlan {
		p.plan = nil
	}
	p.havePlan = d.HavePlan
	p.lastReplan = d.LastReplan
	if p.rp != nil {
		p.rp.RestoreLPCutShort(d.LPCutShort)
	}
}

func (p *MetisPolicy) policyState() *PolicyState {
	if p.rp == nil {
		return nil
	}
	return &PolicyState{
		Name:       p.Name(),
		Seen:       p.rp.Observed(),
		Incumbent:  p.rp.IncumbentChoices(),
		Planned:    p.rp.NumPlanned(),
		Plan:       append([]int(nil), p.plan...),
		HavePlan:   p.havePlan,
		LastReplan: p.lastReplan,
		RelaxedX:   p.rp.RelaxedGuide(0),
		LPCutShort: p.rp.LPCutShort(),
	}
}

func (p *MetisPolicy) restorePolicyState(st *PolicyState, net *wan.Network, slots, pathsPerRequest int) error {
	if st == nil {
		return nil
	}
	rp := core.NewReplanner(net, slots, pathsPerRequest, p.Config, p.Mode)
	if len(st.Seen) > 0 {
		if err := rp.Observe(st.Seen); err != nil {
			return badSnapshot("policy.seen", "%v", err)
		}
	}
	if st.Incumbent != nil {
		if err := rp.RestoreIncumbent(st.Incumbent, st.Planned); err != nil {
			return badSnapshot("policy.incumbent", "%v", err)
		}
	}
	if err := rp.RestoreRelaxedGuide(st.RelaxedX); err != nil {
		return badSnapshot("policy.relaxedX", "%v", err)
	}
	rp.RestoreLPCutShort(st.LPCutShort)
	p.rp = rp
	p.plan = append([]int(nil), st.Plan...)
	if len(st.Plan) == 0 && !st.HavePlan {
		p.plan = nil
	}
	p.havePlan = st.HavePlan
	p.lastReplan = st.LastReplan
	return nil
}
