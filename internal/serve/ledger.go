// Package serve is the service layer: a long-running admission-control
// daemon (cmd/metisd) that accepts bandwidth-reservation requests over
// HTTP, batches arrivals into per-slot epochs, and decides each batch
// with a pluggable admission policy under a per-tick deadline. The
// solver stack stays pure and batch-oriented; this package owns all the
// operational state — the link-state ledger, the sharded arrival queue,
// load shedding, snapshot/restore, and graceful drain.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/wan"
)

// Ledger is the committed link state of one billing cycle: the load
// already promised per (link, slot) and the bandwidth units purchased
// per link (monotone within a cycle — units bought stay paid until the
// cycle ends). It is the durable core of the daemon: snapshots persist
// it, and every epoch's admission decisions are made against a copy of
// it.
//
// The ledger is striped per link: each link's load row and purchase
// entry are guarded by their own mutex, so commits against disjoint
// links proceed concurrently (CommitBatch fans a large epoch's commits
// out across workers) and readers see per-link-consistent state without
// a global lock. Cross-link consistency (a snapshot that pairs loads
// and purchases mid-commit-batch) is the Server's job — it serializes
// snapshots against ticks.
type Ledger struct {
	slots     int
	prices    []float64
	purchased []int
	loads     [][]float64
	stripes   []sync.Mutex // stripes[e] guards loads[e] and purchased[e]
	committed atomic.Int64 // requests accepted this cycle
}

// NewLedger returns an empty ledger over net's links and a cycle of
// slots slots.
func NewLedger(net *wan.Network, slots int) *Ledger {
	l := &Ledger{
		slots:     slots,
		prices:    make([]float64, net.NumLinks()),
		purchased: make([]int, net.NumLinks()),
		loads:     make([][]float64, net.NumLinks()),
		stripes:   make([]sync.Mutex, net.NumLinks()),
	}
	for e := 0; e < net.NumLinks(); e++ {
		l.prices[e] = net.Link(e).Price
		l.loads[e] = make([]float64, slots)
	}
	return l
}

// Links returns the number of links tracked.
func (l *Ledger) Links() int { return len(l.loads) }

// Slots returns the billing-cycle length.
func (l *Ledger) Slots() int { return l.slots }

// Committed returns the number of requests accepted this cycle.
func (l *Ledger) Committed() int { return int(l.committed.Load()) }

// Purchased returns a copy of the per-link purchased units.
func (l *Ledger) Purchased() []int {
	out := make([]int, len(l.purchased))
	for e := range l.purchased {
		l.stripes[e].Lock()
		out[e] = l.purchased[e]
		l.stripes[e].Unlock()
	}
	return out
}

// Loads returns a copy of the committed per-(link, slot) load matrix.
func (l *Ledger) Loads() [][]float64 {
	out := make([][]float64, len(l.loads))
	for e := range l.loads {
		l.stripes[e].Lock()
		out[e] = append([]float64(nil), l.loads[e]...)
		l.stripes[e].Unlock()
	}
	return out
}

// PeakLoad returns link e's peak committed load over the cycle.
func (l *Ledger) PeakLoad(e int) float64 {
	l.stripes[e].Lock()
	defer l.stripes[e].Unlock()
	var peak float64
	for _, v := range l.loads[e] {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// commitLink reserves r.Rate on link e over r's window, buying any
// extra whole units the new peak requires. Callers hold stripe e.
func (l *Ledger) commitLink(e int, r demand.Request) {
	var peak float64
	for t := r.Start; t <= r.End; t++ {
		l.loads[e][t] += r.Rate
		if l.loads[e][t] > peak {
			peak = l.loads[e][t]
		}
	}
	if c := sched.CeilUnits(peak); c > l.purchased[e] {
		l.purchased[e] = c
	}
}

// Commit reserves r.Rate on every link of pathLinks for r's slot
// window, buying any extra whole units the new peak requires.
func (l *Ledger) Commit(r demand.Request, pathLinks []int) {
	for _, e := range pathLinks {
		l.stripes[e].Lock()
		l.commitLink(e, r)
		l.stripes[e].Unlock()
	}
	l.committed.Add(1)
}

// CommitEntry is one accepted request to fold into the ledger: the
// request (windows already clamped) and its assigned path's links.
type CommitEntry struct {
	Req   demand.Request
	Links []int
}

// commitBatchSmall bounds the batch size below which CommitBatch stays
// sequential — the fan-out bookkeeping costs more than it saves.
const commitBatchSmall = 64

// CommitBatch folds a whole epoch's accepted requests into the ledger,
// fanning the per-link work out across up to workers goroutines. Each
// link's touches are applied by exactly one worker in batch order, so
// the resulting loads and purchases are bit-identical to committing the
// entries one by one in order, for every worker count.
func (l *Ledger) CommitBatch(entries []CommitEntry, workers int) {
	if len(entries) == 0 {
		return
	}
	if workers <= 1 || len(entries) < commitBatchSmall {
		for _, en := range entries {
			for _, e := range en.Links {
				l.stripes[e].Lock()
				l.commitLink(e, en.Req)
				l.stripes[e].Unlock()
			}
		}
		l.committed.Add(int64(len(entries)))
		return
	}

	// touches[e] lists, in batch order, the entries that load link e.
	touches := make([][]int, len(l.loads))
	var busy []int // links with at least one touch
	for k, en := range entries {
		for _, e := range en.Links {
			if touches[e] == nil {
				busy = append(busy, e)
			}
			touches[e] = append(touches[e], k)
		}
	}
	if workers > len(busy) {
		workers = len(busy)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(busy) {
					return
				}
				e := busy[i]
				l.stripes[e].Lock()
				for _, k := range touches[e] {
					l.commitLink(e, entries[k].Req)
				}
				l.stripes[e].Unlock()
			}
		}()
	}
	wg.Wait()
	l.committed.Add(int64(len(entries)))
}

// Provision raises the per-link purchase to at least plan (monotone;
// entries beyond the link count are ignored).
func (l *Ledger) Provision(plan []int) {
	for e, units := range plan {
		if e >= len(l.purchased) {
			break
		}
		l.stripes[e].Lock()
		if units > l.purchased[e] {
			l.purchased[e] = units
		}
		l.stripes[e].Unlock()
	}
}

// Cost returns the cycle-to-date purchase cost Σ_e price_e·purchased_e.
func (l *Ledger) Cost() float64 {
	var c float64
	for e := range l.purchased {
		l.stripes[e].Lock()
		c += float64(l.purchased[e]) * l.prices[e]
		l.stripes[e].Unlock()
	}
	return c
}

// PurchasedUnits returns the total units purchased across links.
func (l *Ledger) PurchasedUnits() int {
	var n int
	for e := range l.purchased {
		l.stripes[e].Lock()
		n += l.purchased[e]
		l.stripes[e].Unlock()
	}
	return n
}

// Reset clears the ledger for a new billing cycle: loads, purchases and
// the committed count all return to zero. Prices are retained.
func (l *Ledger) Reset() {
	l.committed.Store(0)
	for e := range l.purchased {
		l.stripes[e].Lock()
		l.purchased[e] = 0
		ts := l.loads[e]
		for t := range ts {
			ts[t] = 0
		}
		l.stripes[e].Unlock()
	}
}

// Equal reports whether two ledgers carry identical committed state
// (bit-for-bit loads, purchases, committed count). Used by the
// snapshot/restore tests and the restore-time consistency check.
func (l *Ledger) Equal(o *Ledger) bool {
	if l.slots != o.slots || l.Committed() != o.Committed() ||
		len(l.purchased) != len(o.purchased) || len(l.loads) != len(o.loads) {
		return false
	}
	lp, op := l.Purchased(), o.Purchased()
	ll, ol := l.Loads(), o.Loads()
	for e := range lp {
		if lp[e] != op[e] {
			return false
		}
		for t := range ll[e] {
			if ll[e][t] != ol[e][t] {
				return false
			}
		}
	}
	return true
}

// LedgerImage is the JSON wire form of a Ledger: the per-(link, slot)
// committed occupancy plus per-link purchases. It appears in crash
// snapshots and in flight-recorder postmortem bundles.
type LedgerImage struct {
	Slots     int         `json:"slots"`
	Purchased []int       `json:"purchased"`
	Loads     [][]float64 `json:"loads"`
	Committed int         `json:"committed"`
}

func (l *Ledger) snap() LedgerImage {
	return LedgerImage{Slots: l.slots, Purchased: l.Purchased(), Loads: l.Loads(), Committed: l.Committed()}
}

// checkImage validates a wire-form ledger against the receiver without
// touching it: the shape must match the receiver's network and cycle,
// and the committed state must pass spm.CheckLedger.
func (l *Ledger) checkImage(s LedgerImage) error {
	if s.Slots != l.slots {
		return badSnapshot("ledger.slots", "%d slots, ledger has %d", s.Slots, l.slots)
	}
	if len(s.Purchased) != len(l.purchased) || len(s.Loads) != len(l.loads) {
		return badSnapshot("ledger", "%d purchase entries and %d load rows, ledger has %d links", len(s.Purchased), len(s.Loads), len(l.purchased))
	}
	for e := range s.Loads {
		if len(s.Loads[e]) != l.slots {
			return badSnapshot(fmt.Sprintf("ledger.loads[%d]", e), "%d slots, want %d", len(s.Loads[e]), l.slots)
		}
	}
	if s.Committed < 0 {
		return badSnapshot("ledger.committed", "negative count %d", s.Committed)
	}
	if err := spm.CheckLedger(s.Loads, s.Purchased); err != nil {
		return badSnapshot("ledger", "%v", err)
	}
	return nil
}

// restore overwrites the ledger with a wire-form image of the same
// shape (one that passed checkImage, or another ledger's snap), keeping
// the receiver's prices.
func (l *Ledger) restore(s LedgerImage) {
	for e := range s.Loads {
		l.stripes[e].Lock()
		l.purchased[e] = s.Purchased[e]
		copy(l.loads[e], s.Loads[e])
		l.stripes[e].Unlock()
	}
	l.committed.Store(int64(s.Committed))
}
