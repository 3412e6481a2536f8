package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"metis"
)

// The daemon maps its epoch ticks onto billing-cycle slots round-robin:
// the tick of epoch n decides slot n mod Slots, and the ledger resets
// when the cycle wraps. The generator aligns its schedule to that clock
// — time 0 is the start of a slot-0 tick — and shifts each request's
// window so it starts no earlier than the slot that decides it.
// A request the daemon rejects as expired then marks the daemon falling
// behind, not the generator.

// clock places arrivals on the daemon's epoch grid.
type clock struct {
	epoch time.Duration
	slots int
}

// decideSlot returns the latest slot in which the daemon can decide an
// arrival due at offset p from a slot-0 tick start, given that the first
// or the second tick after p decides it. If the second tick opens the
// next cycle, the first tick's slot is the cycle's last, so the answer
// is the last slot either way.
func (c clock) decideSlot(p time.Duration) int {
	n := int(p/c.epoch) + 1 // first tick strictly after p
	s := (n + 1) % c.slots  // the second tick's slot
	if s == 0 {
		return c.slots - 1
	}
	return s
}

// fitWindow moves a paper-default request into the slots [from, slots):
// it keeps the window's length when it fits (truncating it otherwise,
// with the value scaled by the kept share so the value-to-cost markup
// is unchanged) and keeps the start's offset where there is room.
func fitWindow(r metis.Request, from, slots int) metis.Request {
	room := slots - from
	d := r.End - r.Start + 1
	if d > room {
		r.Value *= float64(room) / float64(d)
		d = room
	}
	r.Start = from + r.Start%(room-d+1)
	r.End = r.Start + d - 1
	return r
}

// arrival is one submission of the schedule: a batch POST or a single
// POST, due at an offset from the schedule's origin.
type arrival struct {
	due    time.Duration
	single bool
	n      int           // requests in the body
	sent   metis.Request // a single POST's request, kept for checking its decision
	body   []byte        // pre-encoded request body
}

// mix describes an open-loop arrival stream.
type mix struct {
	batchSize  int           // requests per batch POST
	batchRate  float64       // requests/s sent in batch POSTs
	singleRate float64       // single POSTs per second
	span       time.Duration // length of the stream
}

// schedule builds the open-loop stream: the arrivals in due order, each
// request drawn in turn from a paper-default workload for seed and
// fitted to its decision slot, with every body pre-encoded.
func schedule(net *metis.Network, c clock, m mix, seed int64) ([]arrival, error) {
	var out []arrival
	for _, g := range []struct {
		rate   float64 // POSTs per second
		single bool
	}{{m.batchRate / float64(m.batchSize), false}, {m.singleRate, true}} {
		if g.rate <= 0 {
			continue
		}
		// Singles sit half a gap off their own grid.
		off := 0.0
		if g.single {
			off = 0.5
		}
		for k := 0; ; k++ {
			p := time.Duration((float64(k) + off) / g.rate * float64(time.Second))
			if p >= m.span {
				break
			}
			out = append(out, arrival{due: p, single: g.single})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })

	total := 0
	for _, a := range out {
		if a.single {
			total++
		} else {
			total += m.batchSize
		}
	}
	base, err := metis.GenerateWorkload(net, total, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %d requests: %w", total, err)
	}
	next := 0
	for i := range out {
		a := &out[i]
		n := m.batchSize
		if a.single {
			n = 1
		}
		from := c.decideSlot(a.due)
		reqs := base[next : next+n]
		next += n
		for k := range reqs {
			reqs[k] = fitWindow(reqs[k], from, c.slots)
			reqs[k].ID = 0 // the daemon assigns ids
		}
		a.n = n
		if a.single {
			a.sent = reqs[0]
			a.body, err = json.Marshal(reqs[0])
		} else {
			a.body, err = json.Marshal(reqs)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
