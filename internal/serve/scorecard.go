package serve

import "sync"

// DefaultScorecardSize bounds the epoch-record ring served by
// /debug/epochs.
const DefaultScorecardSize = 512

// Epoch solve statuses (EpochRecord.SolveStatus).
const (
	// SolveIdle: the batch was empty; no policy call was made.
	SolveIdle = "idle"
	// SolveOK: the policy decided the batch inside its budget.
	SolveOK = "ok"
	// SolveDegradedFallback: the policy overran the tick budget and the
	// epoch was decided by the greedy fallback.
	SolveDegradedFallback = "degraded-fallback"
	// SolveReplanDegraded: the metis policy's re-solve was cut short by
	// the budget but the epoch was still decided (incumbent or previous
	// plan).
	SolveReplanDegraded = "replan-degraded"
	// SolveError: the policy returned a non-budget error; the batch was
	// rejected.
	SolveError = "error"
)

// EpochRecord is one row of the epoch health scorecard: everything one
// tick did, including what the solver stack was doing underneath it
// (solver figures are deltas of the process-wide obs counters over the
// tick, so concurrent servers in one process smear each other's solver
// columns — the daemon runs exactly one).
type EpochRecord struct {
	Epoch      int    `json:"epoch"`
	Cycle      int    `json:"cycle"`
	Slot       int    `json:"slot"`
	Policy     string `json:"policy"`
	Role       string `json:"role,omitempty"`
	UnixMillis int64  `json:"unixMillis"`

	// Batch outcome.
	Batch    int   `json:"batch"`
	Accepted int   `json:"accepted"`
	Rejected int   `json:"rejected"`
	Expired  int   `json:"expired"`
	Shed     int64 `json:"shed"` // sheds since the previous tick's commit

	// Epoch health.
	QueueDepth    int     `json:"queueDepth"` // arrivals queued during the tick, still waiting
	Degraded      bool    `json:"degraded"`
	Overrun       bool    `json:"overrun"`
	SolveStatus   string  `json:"solveStatus"`
	BudgetMillis  float64 `json:"budgetMillis"`
	ElapsedMillis float64 `json:"elapsedMillis"`
	// Phase shares of ElapsedMillis. InstanceMillis is the tick's
	// sched.NewInstance over the live batch (serve.instance_ms).
	// ObserveMillis is the metis policy folding the batch into its
	// replanner (the tick's delta of the serve.observe_ms histogram's
	// sum). ReplanMillis is the policy's replan (the tick's delta of
	// serve.replan_ms; 0 for ticks without a replan).
	InstanceMillis float64 `json:"instanceMillis"`
	ObserveMillis  float64 `json:"observeMillis"`
	ReplanMillis   float64 `json:"replanMillis"`

	// Request latency inside this epoch (arrival → batch claim).
	QueueWaitMeanMillis float64 `json:"queueWaitMeanMillis"`
	QueueWaitMaxMillis  float64 `json:"queueWaitMaxMillis"`

	// Solver activity during the tick (obs counter deltas).
	LPSolves         int64 `json:"lpSolves"`
	LPIters          int64 `json:"lpIters"`
	Rounds           int64 `json:"rounds"`
	WarmHits         int64 `json:"warmHits"`
	WarmStalls       int64 `json:"warmStalls"`
	ColdFallbacks    int64 `json:"coldFallbacks"`
	PricingFallbacks int64 `json:"pricingFallbacks"`
	DualColdStarts   int64 `json:"dualColdStarts"`
	DualColdBails    int64 `json:"dualColdBails"`
	Replans          int64 `json:"replans"`
	ReplansDegraded  int64 `json:"replansDegraded"`
	ReplanSkips      int64 `json:"replanSkips"` // replans that skipped the LP (cycle already cut short)

	// Realized economics of the tick.
	RevenueDelta float64 `json:"revenueDelta"`
	CostDelta    float64 `json:"costDelta"`
	ProfitDelta  float64 `json:"profitDelta"`
}

// counterDelta reads key's delta between two obs snapshots.
func counterDelta(before, after map[string]float64, key string) int64 {
	return int64(after[key] - before[key])
}

// fillSolverDeltas populates the solver-activity columns from the tick's
// before/after counter snapshots.
func (r *EpochRecord) fillSolverDeltas(before, after map[string]float64) {
	r.LPSolves = counterDelta(before, after, "lp.solves")
	r.LPIters = counterDelta(before, after, "lp.iters")
	r.Rounds = counterDelta(before, after, "core.rounds")
	r.WarmHits = counterDelta(before, after, "lp.warm.hits")
	r.WarmStalls = counterDelta(before, after, "lp.warm.stalls")
	r.ColdFallbacks = counterDelta(before, after, "lp.warm.cold_fallbacks")
	r.PricingFallbacks = counterDelta(before, after, "lp.pricing.fallbacks")
	r.DualColdStarts = counterDelta(before, after, "lp.pricing.dual_cold_starts")
	r.DualColdBails = counterDelta(before, after, "lp.pricing.dual_cold_bails")
	r.Replans = counterDelta(before, after, "serve.replans")
	r.ReplansDegraded = counterDelta(before, after, "serve.replans_degraded")
	r.ReplanSkips = counterDelta(before, after, "core.replan.lp_skips")
}

// scoreRing is the fixed-size epoch-record ring behind /debug/epochs.
// It has its own lock so readers never contend with the Server's mu.
type scoreRing struct {
	mu   sync.Mutex
	recs []EpochRecord
	next int
	full bool
}

func newScoreRing(size int) *scoreRing {
	if size <= 0 {
		size = DefaultScorecardSize
	}
	return &scoreRing{recs: make([]EpochRecord, size)}
}

func (s *scoreRing) push(r EpochRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[s.next] = r
	s.next++
	if s.next == len(s.recs) {
		s.next, s.full = 0, true
	}
}

// records returns the retained records, oldest first.
func (s *scoreRing) records() []EpochRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]EpochRecord(nil), s.recs[:s.next]...)
	}
	out := make([]EpochRecord, 0, len(s.recs))
	out = append(out, s.recs[s.next:]...)
	out = append(out, s.recs[:s.next]...)
	return out
}

// last returns the most recent record, if any.
func (s *scoreRing) last() (EpochRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full && s.next == 0 {
		return EpochRecord{}, false
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.recs) - 1
	}
	return s.recs[i], true
}

// EpochRecords returns the scorecard's retained epoch records, oldest
// first.
func (s *Server) EpochRecords() []EpochRecord { return s.score.records() }
