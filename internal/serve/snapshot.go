package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"metis/internal/demand"
	"metis/internal/fsx"
	"metis/internal/wal"
)

// SnapshotVersion is the wire version of the snapshot format. Version 2
// added the metis policies' cycle state (PolicyState); version 3 added
// the HA fencing token and the WAL offset the image covers. Restore
// still accepts versions 1 and 2, which simply carry no such state.
const SnapshotVersion = 3

// Snapshot is the JSON crash-recovery image of a Server: the committed
// ledger plus every queued-but-undecided arrival, with enough daemon
// time (epoch, next id) to resume exactly where the process stopped,
// and — for the metis policies — the replanner's cycle state
// (PolicyState). Decision history is observability, not ledger state,
// and is not persisted.
type Snapshot struct {
	Version int    `json:"version"`
	Network string `json:"network"`
	Links   int    `json:"links"`
	Slots   int    `json:"slots"`
	Epoch   int    `json:"epoch"`
	NextID  int64  `json:"nextId"`
	// Ledger is the committed per-(link, slot) state.
	Ledger LedgerImage `json:"ledger"`
	// Queue holds the pending arrivals in submission order.
	Queue []QueuedRequest `json:"queue"`
	// Policy is the admission policy's cycle state as of the last
	// committed tick (nil for stateless policies and v1 images).
	Policy *PolicyState `json:"policy,omitempty"`
	// Token is the fencing token of the leader that wrote the image; a
	// standby refuses images from a leader older than one it has
	// already followed.
	Token uint64 `json:"token,omitempty"`
	// WAL is the log offset this image covers: every record at or
	// before it is reflected in the image, every record after it is
	// not. Recovery replays the log from here.
	WAL *wal.Offset `json:"wal,omitempty"`
	// Revenue is the accepted value over every billing cycle so far;
	// with a WAL it must survive restore so replay accumulates on top of
	// the right base.
	Revenue float64 `json:"revenue,omitempty"`
	// PriorCost is the purchase cost of the billing cycles before the
	// ledger's (Stats.PurchasedCostTotal less the ledger's own cost),
	// kept like Revenue.
	PriorCost float64 `json:"priorCost,omitempty"`
}

// QueuedRequest is one pending arrival in a snapshot.
type QueuedRequest struct {
	ID      int64          `json:"id"`
	Request demand.Request `json:"request"`
}

// Snapshot writes the server's crash-recovery image to w. It is safe
// to call concurrently with Submit and Tick: the image is consistent —
// the committed ledger, the policy state matching it (captured at the
// last tick boundary, never mid-decision), plus every arrival not yet
// committed (including a batch an in-flight tick is still deciding).
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.Lock()
	snap := Snapshot{
		Version:   SnapshotVersion,
		Network:   s.cfg.Net.Name(),
		Links:     s.cfg.Net.NumLinks(),
		Slots:     s.cfg.Slots,
		Epoch:     s.epoch,
		NextID:    s.nextID.Load(),
		Ledger:    s.led.snap(),
		Policy:    s.policyImage,
		Token:     s.token.Load(),
		Revenue:   s.revenue,
		PriorCost: s.priorCost,
	}
	// The WAL offset and the queue scan are captured under the walGate
	// write barrier: a submit holds the read side across its append +
	// enqueue, so the offset recorded here covers exactly the arrivals
	// the scan sees — no acked arrival can fall between the image and
	// its replay. Tick records serialize via s.mu, already held. Lock
	// order: s.mu → walGate (submits never take s.mu).
	if s.cfg.WAL != nil {
		s.walGate.Lock()
		off := s.cfg.WAL.AppendedEnd()
		snap.WAL = &off
	}
	// An in-flight tick's batch is re-queued on restore: its decisions
	// have not been committed, so replaying it is the consistent choice
	// (the cached policy state predates observing it).
	for _, p := range s.deciding {
		snap.Queue = append(snap.Queue, QueuedRequest{ID: p.id, Request: p.req})
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, p := range sh.queue {
			snap.Queue = append(snap.Queue, QueuedRequest{ID: p.id, Request: p.req})
		}
		sh.mu.Unlock()
	}
	if s.cfg.WAL != nil {
		s.walGate.Unlock()
	}
	sort.Slice(snap.Queue, func(a, b int) bool { return snap.Queue[a].ID < snap.Queue[b].ID })
	s.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	cSnapshots.Inc()
	return nil
}

// SnapshotFile atomically writes the snapshot to path: temp file in
// the same directory, fsync, rename, directory fsync — a crash at any
// point leaves either the old image or the new one, never a mix.
func (s *Server) SnapshotFile(path string) error {
	return fsx.WriteAtomic(path, 0o644, func(w io.Writer) error {
		return s.Snapshot(w)
	})
}

// SnapshotError reports a snapshot image that decodes but describes a
// state the server cannot hold: a topology or cycle mismatch, a ledger
// failing spm.CheckLedger, a queue id outside [1, nextId), policy state
// that does not fit the network or its own workload. Restore returns
// it before touching any server state.
type SnapshotError struct {
	Field string // the offending image field, e.g. "queue[3].id"
	Msg   string
}

func (e *SnapshotError) Error() string { return "serve: snapshot " + e.Field + ": " + e.Msg }

// maxSnapshotCounter bounds the image's epoch and next id: well past
// any real daemon's lifetime, and far enough from MaxInt64 that the
// counters cannot overflow once the restored server ticks on.
const maxSnapshotCounter = 1 << 53

func badSnapshot(field, format string, args ...any) error {
	return &SnapshotError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Restore loads a snapshot into a freshly constructed server. It must
// run before the first Submit or Tick; restoring onto a server that has
// already accepted state is an error. The snapshot's topology
// fingerprint (network name, link count, slot count) must match the
// server's configuration. Policy state is restored when the configured
// policy matches the snapshot's (same name); a mismatch — the operator
// switched policies across the restart — drops the state and lets the
// new policy rebuild its plan from the re-queued arrivals.
//
// The whole image is validated before anything is installed: a
// rejected image returns a *SnapshotError (or a decode error) and
// leaves the server exactly as it was. Re-queued arrivals count their
// queue wait from the restore, not from their original submission.
func (s *Server) Restore(r io.Reader) error {
	var snap Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("serve: decode snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return badSnapshot("version", "%d, want 1..%d", snap.Version, SnapshotVersion)
	}
	if snap.Network != s.cfg.Net.Name() || snap.Links != s.cfg.Net.NumLinks() {
		return badSnapshot("network", "image is for %q (%d links), server runs %q (%d links)",
			snap.Network, snap.Links, s.cfg.Net.Name(), s.cfg.Net.NumLinks())
	}
	if snap.Slots != s.cfg.Slots {
		return badSnapshot("slots", "image has %d slots, server runs %d", snap.Slots, s.cfg.Slots)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != 0 || s.nextID.Load() != 1 || s.queueDepth.Load() != 0 {
		return fmt.Errorf("serve: restore onto a server that already has state")
	}
	if err := s.checkSnapshot(&snap); err != nil {
		return err
	}
	// The policy state is the last fallible step and installs only on
	// success; nothing after it can fail.
	if snap.Policy != nil {
		if sp, ok := s.cfg.Policy.(statefulPolicy); ok && snap.Policy.Name == s.cfg.Policy.Name() {
			if err := sp.restorePolicyState(snap.Policy, s.cfg.Net, s.cfg.Slots, s.cfg.PathsPerRequest); err != nil {
				return err
			}
			s.policyImage = snap.Policy
		}
	}

	s.led.restore(snap.Ledger)
	s.epoch = snap.Epoch
	s.nextID.Store(snap.NextID)
	s.pruneFrom = snap.NextID
	s.revenue = snap.Revenue
	s.priorCost = snap.PriorCost
	s.token.Store(snap.Token)
	if snap.WAL != nil {
		s.walFrom = *snap.WAL
	}
	// Decision records start at the oldest queued id, but never before
	// the retention window: the tick's pruning walks ids one by one from
	// pruneFrom, and a queued id far behind nextId would make it walk the
	// whole gap.
	floor := snap.NextID - int64(s.cfg.DecisionRetention)
	now := time.Now()
	for _, q := range snap.Queue {
		sh := &s.shards[int(q.ID)%intakeShards]
		sh.queue = append(sh.queue, pending{id: q.ID, req: q.Request, at: now})
		ds := s.dshard(q.ID)
		ds.m[q.ID] = &Decision{ID: q.ID, Status: StatusQueued, Request: q.Request}
		s.pruneFrom = min(s.pruneFrom, max(q.ID, floor))
	}
	s.queueDepth.Store(int64(len(snap.Queue)))
	gQueueDepth.Set(int64(len(snap.Queue)))
	return nil
}

// checkSnapshot validates the parts of a decoded image that Restore
// installs directly: counters, ledger, queue, and — when the configured
// policy will adopt it — the capacity plan. The replanner validates the
// rest of the policy state (workload, incumbent, guide) as it rebuilds.
func (s *Server) checkSnapshot(snap *Snapshot) error {
	if snap.Epoch < 0 || snap.Epoch > maxSnapshotCounter {
		return badSnapshot("epoch", "%d out of range [0, %d]", snap.Epoch, maxSnapshotCounter)
	}
	if snap.NextID < 1 || snap.NextID > maxSnapshotCounter {
		return badSnapshot("nextId", "%d out of range [1, %d]", snap.NextID, maxSnapshotCounter)
	}
	if err := s.led.checkImage(snap.Ledger); err != nil {
		return err
	}
	seen := make(map[int64]bool, len(snap.Queue))
	for k, q := range snap.Queue {
		if q.ID < 1 || q.ID >= snap.NextID {
			return badSnapshot(fmt.Sprintf("queue[%d].id", k), "%d out of range [1, %d)", q.ID, snap.NextID)
		}
		if seen[q.ID] {
			return badSnapshot(fmt.Sprintf("queue[%d].id", k), "duplicate id %d", q.ID)
		}
		seen[q.ID] = true
		if err := q.Request.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
			return badSnapshot(fmt.Sprintf("queue[%d].request", k), "%v", err)
		}
	}
	ps := snap.Policy
	if ps == nil || ps.Name != s.cfg.Policy.Name() {
		return nil
	}
	if len(ps.Plan) != 0 && len(ps.Plan) != s.cfg.Net.NumLinks() {
		return badSnapshot("policy.plan", "%d entries, want one per link (%d)", len(ps.Plan), s.cfg.Net.NumLinks())
	}
	for e, u := range ps.Plan {
		if u < 0 {
			return badSnapshot(fmt.Sprintf("policy.plan[%d]", e), "negative units %d", u)
		}
	}
	return nil
}

// RestoreFile is Restore from a file path.
func (s *Server) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Restore(f)
}
