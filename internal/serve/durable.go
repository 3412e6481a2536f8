package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"metis/internal/demand"
	"metis/internal/wal"
)

// WAL record types. The serve layer owns the payload schemas; the wal
// package only frames and checksums them.
const (
	walRecArrival byte = 1 // one acked arrival
	walRecTick    byte = 2 // one committed epoch tick (all its decisions)
	walRecFence   byte = 3 // a fencing token minted at promotion
)

// Outcome kinds inside a tick record.
const (
	walKindAccept  = "accept"
	walKindReject  = "reject"
	walKindExpired = "expired"
)

// walArrival is the WAL image of one acked arrival. The request carries
// the server-assigned id.
type walArrival struct {
	ID  int64          `json:"id"`
	Req demand.Request `json:"req"`
}

// walOutcome is one request's decision inside a tick record, in batch
// (id) order. Start is the window start clamped to the deciding slot —
// recovery re-commits exactly what the live tick committed.
type walOutcome struct {
	ID       int64  `json:"id"`
	Kind     string `json:"kind"`
	Links    []int  `json:"links,omitempty"`
	Start    int    `json:"start,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
}

// walTick is the redo record of one committed epoch: enough to replay
// the tick's exact effect on the ledger, decisions and revenue without
// re-running the policy (which may have been cut short by the tick
// budget and is therefore not reproducible from inputs alone).
type walTick struct {
	Epoch     int             `json:"epoch"`
	Slot      int             `json:"slot"`
	Outcomes  []walOutcome    `json:"outcomes,omitempty"`
	Purchased []int           `json:"purchased,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
	Policy    *walPolicyDelta `json:"policy,omitempty"`
}

// walPolicyDelta is the compact policy state a tick record carries: the
// adopted capacity plan, the replan clock and the cycle's LP cut-short
// mark. Together with observe-only catch-up over the replayed batches
// this reproduces the metis policies' decision-relevant state; the warm
// incumbent/relaxation are caches rebuilt by the next replan.
type walPolicyDelta struct {
	Name       string `json:"name"`
	Plan       []int  `json:"plan,omitempty"`
	HavePlan   bool   `json:"havePlan,omitempty"`
	LastReplan int    `json:"lastReplan,omitempty"`
	LPCutShort bool   `json:"lpCutShort,omitempty"`
}

// walFence is a fencing-token record, appended by the HA layer when a
// standby promotes.
type walFence struct {
	Token uint64 `json:"token"`
}

// AppendFence durably appends a fencing-token record; the HA promotion
// path calls it so the token survives in the same log as the state it
// fences.
func AppendFence(l *wal.Log, token uint64) error {
	body, err := json.Marshal(walFence{Token: token})
	if err != nil {
		return err
	}
	off, err := l.Append(walRecFence, body)
	if err != nil {
		return err
	}
	return l.WaitDurable(off)
}

// Server roles. A standby refuses submits and ticks until promoted; a
// fenced (ex-)leader refuses both forever — a newer leader owns the
// state now, or its own WAL failed and durability cannot be promised.
const (
	RoleLeader  = "leader"
	RoleStandby = "standby"
	RoleFenced  = "fenced"
)

const (
	roleLeader int32 = iota
	roleStandby
	roleFenced
)

func roleName(r int32) string {
	switch r {
	case roleStandby:
		return RoleStandby
	case roleFenced:
		return RoleFenced
	default:
		return RoleLeader
	}
}

// ErrStandby is returned by Submit on a standby (HTTP 503).
var ErrStandby = errors.New("serve: standby, not accepting requests")

// ErrFenced is returned by Submit on a fenced server (HTTP 503).
var ErrFenced = errors.New("serve: fenced, a newer leader owns this state")

// Role returns the server's current role string.
func (s *Server) Role() string { return roleName(s.role.Load()) }

// SetStandby marks the server a standby: submits and ticks are refused
// until SetLeader (promotion).
func (s *Server) SetStandby() { s.role.Store(roleStandby) }

// SetLeader marks the server the active leader.
func (s *Server) SetLeader() { s.role.Store(roleLeader) }

// Fence permanently steps the server down: submits and ticks are
// refused from now on. Called when a newer fencing token shows up, or
// when the WAL fails mid-tick and durability can no longer be promised.
func (s *Server) Fence() { s.role.Store(roleFenced) }

// Token returns the fencing token this server's state carries.
func (s *Server) Token() uint64 { return s.token.Load() }

// SetToken records the fencing token (minted by the HA layer); it is
// embedded in every snapshot so stale leaders are rejected on stream.
func (s *Server) SetToken(t uint64) { s.token.Store(t) }

// WAL returns the configured write-ahead log (nil when not durable).
func (s *Server) WAL() *wal.Log { return s.cfg.WAL }

// SetWAL attaches a write-ahead log to a server that does not have one
// yet — the HA promotion path opens the mirrored log only when the
// standby becomes a leader. It must run before recovery and serving.
func (s *Server) SetWAL(l *wal.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.WAL != nil {
		return errors.New("serve: server already has a WAL")
	}
	s.cfg.WAL = l
	return nil
}

func roleErr(r int32) error {
	if r == roleFenced {
		return ErrFenced
	}
	return ErrStandby
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All record types marshal unconditionally; a failure here is a
		// programming error, not an input error.
		panic("serve: wal record encode: " + err.Error())
	}
	return b
}

// RecoverStats summarizes one RecoverWAL pass.
type RecoverStats struct {
	// Arrivals re-queued from the log (SkippedArrivals were already in
	// the restored snapshot).
	Arrivals        int `json:"arrivals"`
	SkippedArrivals int `json:"skippedArrivals"`
	// Ticks re-applied from the log (SkippedTicks predate the restored
	// snapshot's epoch).
	Ticks        int `json:"ticks"`
	SkippedTicks int `json:"skippedTicks"`
	// MaxToken is the largest fencing token seen in the log.
	MaxToken uint64 `json:"maxToken"`
	// End is the clean end of the log.
	End wal.Offset `json:"end"`
}

// RecoverWAL replays the write-ahead log tail into the server: every
// arrival acked before the crash is re-queued (unless the restored
// snapshot already holds it) and every committed tick is re-applied to
// the ledger, decision records, revenue and policy state. It must run
// after Restore (when there is a snapshot) and before serving. The
// replay is idempotent against the snapshot: records at offsets the
// snapshot already covers are skipped by construction (the snapshot's
// recorded WAL offset is where the replay starts).
func (s *Server) RecoverWAL() (RecoverStats, error) {
	var st RecoverStats
	w := s.cfg.WAL
	if w == nil {
		return st, errors.New("serve: RecoverWAL needs a configured WAL")
	}
	end, err := wal.Replay(w.Dir(), s.walFrom, func(off wal.Offset, typ byte, body []byte) error {
		switch typ {
		case walRecArrival:
			var a walArrival
			if err := json.Unmarshal(body, &a); err != nil {
				return fmt.Errorf("serve: wal arrival at %v: %w", off, err)
			}
			return s.recoverArrival(a, &st)
		case walRecTick:
			var tr walTick
			if err := json.Unmarshal(body, &tr); err != nil {
				return fmt.Errorf("serve: wal tick at %v: %w", off, err)
			}
			return s.recoverTick(&tr, &st)
		case walRecFence:
			var fr walFence
			if err := json.Unmarshal(body, &fr); err != nil {
				return fmt.Errorf("serve: wal fence at %v: %w", off, err)
			}
			if fr.Token > st.MaxToken {
				st.MaxToken = fr.Token
			}
			if fr.Token > s.token.Load() {
				s.token.Store(fr.Token)
			}
			return nil
		default:
			return fmt.Errorf("serve: wal record type %d at %v", typ, off)
		}
	})
	st.End = end
	if err != nil {
		return st, err
	}
	return st, nil
}

// recoverArrival re-queues one logged arrival, its queue wait counted
// from recovery. Arrivals the restored snapshot already carries (their
// decision record exists) are skipped — never enqueue an acked request
// twice.
func (s *Server) recoverArrival(a walArrival, st *RecoverStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.ID < 1 {
		return fmt.Errorf("serve: wal arrival id %d out of range", a.ID)
	}
	if a.ID >= s.nextID.Load() {
		s.nextID.Store(a.ID + 1)
	}
	ds := s.dshard(a.ID)
	ds.mu.Lock()
	_, known := ds.m[a.ID]
	ds.mu.Unlock()
	if known {
		st.SkippedArrivals++
		return nil
	}
	if err := a.Req.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
		return fmt.Errorf("serve: wal arrival %d: %w", a.ID, err)
	}
	ds.mu.Lock()
	ds.m[a.ID] = &Decision{ID: a.ID, Status: StatusQueued, Request: a.Req}
	ds.mu.Unlock()
	sh := &s.shards[int(a.ID)%intakeShards]
	sh.mu.Lock()
	sh.queue = append(sh.queue, pending{id: a.ID, req: a.Req, at: time.Now()})
	sh.mu.Unlock()
	s.queueDepth.Add(1)
	if a.ID < s.pruneFrom {
		s.pruneFrom = a.ID
	}
	s.nSubmitted.Add(1)
	st.Arrivals++
	return nil
}

// recoverTick re-applies one logged epoch: the exact decisions the live
// tick committed, in the same order, against the same ledger state.
// Ticks at epochs the snapshot already covers are skipped; a tick from
// a *later* epoch than the replay cursor means the log has a gap and
// recovery must not proceed.
func (s *Server) recoverTick(tr *walTick, st *RecoverStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case tr.Epoch < s.epoch:
		st.SkippedTicks++
		return nil
	case tr.Epoch > s.epoch:
		return fmt.Errorf("serve: wal tick gap: log has epoch %d, replay cursor at %d", tr.Epoch, s.epoch)
	}
	slot := tr.Epoch % s.cfg.Slots
	if tr.Slot != slot {
		return fmt.Errorf("serve: wal tick %d claims slot %d, cycle says %d", tr.Epoch, tr.Slot, slot)
	}
	if slot == 0 && tr.Epoch > 0 {
		s.wrapCycle()
	}

	// Claim exactly the logged batch out of the queue. Every decided id
	// must be queued: a tick record deciding an unknown id is a phantom
	// (the arrival's record is missing) and recovery refuses it.
	want := make(map[int64]bool, len(tr.Outcomes))
	for i := range tr.Outcomes {
		want[tr.Outcomes[i].ID] = true
	}
	got := make(map[int64]pending, len(want))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		kept := sh.queue[:0]
		for _, p := range sh.queue {
			if want[p.id] {
				got[p.id] = p
			} else {
				kept = append(kept, p)
			}
		}
		sh.queue = kept
		sh.mu.Unlock()
	}
	if len(got) != len(want) {
		return fmt.Errorf("serve: wal tick %d decides %d request(s) with no logged arrival (phantom)", tr.Epoch, len(want)-len(got))
	}
	s.queueDepth.Add(-int64(len(got)))

	cycle := tr.Epoch / s.cfg.Slots
	var entries []CommitEntry
	var observed []demand.Request
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		p, ok := got[o.ID]
		if !ok {
			return fmt.Errorf("serve: wal tick %d repeats id %d", tr.Epoch, o.ID)
		}
		delete(got, o.ID)
		switch o.Kind {
		case walKindAccept:
			r := p.req
			r.ID = int(o.ID)
			r.Start = o.Start
			links := append([]int(nil), o.Links...)
			entries = append(entries, CommitEntry{Req: r, Links: links})
			s.decided(o.ID, func(d *Decision) {
				d.Status, d.Links, d.Degraded = StatusAccepted, links, o.Degraded
				d.Epoch, d.Cycle, d.Slot = tr.Epoch, cycle, slot
			})
			s.nAccepted++
			s.revenue += p.req.Value
			cAccepted.Inc()
			observed = append(observed, r)
		case walKindReject:
			reason, degraded := o.Reason, o.Degraded
			s.decided(o.ID, func(d *Decision) {
				d.Status, d.Reason, d.Degraded = StatusRejected, reason, degraded
				d.Epoch, d.Cycle, d.Slot = tr.Epoch, cycle, slot
			})
			s.nRejected++
			cRejected.Inc()
			r := p.req
			r.ID = int(o.ID)
			r.Start = o.Start
			observed = append(observed, r)
		case walKindExpired:
			s.decided(o.ID, func(d *Decision) {
				d.Status, d.Reason = StatusRejected, "window expired before decision"
				d.Epoch, d.Cycle, d.Slot = tr.Epoch, cycle, slot
			})
			s.nRejected++
			cRejected.Inc()
			cExpired.Inc()
		default:
			return fmt.Errorf("serve: wal tick %d has outcome kind %q", tr.Epoch, o.Kind)
		}
	}
	if len(entries) > 0 {
		s.led.CommitBatch(entries, 1)
	}
	if tr.Purchased != nil {
		s.led.Provision(tr.Purchased)
	}
	if tr.Degraded {
		s.nDegraded++
	}

	// Policy catch-up: observe the replayed live batch (same order, same
	// clamped windows as the live tick) and adopt the logged plan. The
	// warm incumbent/relaxation are rebuilt by the next replan.
	if rp, ok := s.cfg.Policy.(replayPolicy); ok {
		if len(observed) > 0 {
			if err := rp.observeReplay(s.cfg.Net, s.cfg.Slots, s.cfg.PathsPerRequest, observed); err != nil {
				return fmt.Errorf("serve: wal tick %d policy catch-up: %w", tr.Epoch, err)
			}
		}
		if tr.Policy != nil {
			rp.applyReplayDelta(tr.Policy)
		}
	}
	if sp, ok := s.cfg.Policy.(statefulPolicy); ok {
		s.policyImage = sp.policyState()
	}
	s.epoch++
	st.Ticks++
	return nil
}
