// The service layer in-process: an admission-control Server (the
// engine inside cmd/metisd) fed a synthetic arrival stream, ticked
// deterministically, snapshotted mid-cycle and restored into a second
// server that finishes the stream — the crash-recovery path without
// HTTP or wall-clock time.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"

	"metis"
)

func main() {
	net := metis.SubB4()
	reqs, err := metis.GenerateWorkload(net, 120, 3)
	if err != nil {
		log.Fatal(err)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Start < reqs[j].Start })

	newServer := func() *metis.Server {
		policy, err := metis.NewServePolicy("metis", nil, 2, metis.Config{})
		if err != nil {
			log.Fatal(err)
		}
		s, err := metis.NewServer(metis.ServeConfig{Net: net, Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	srv := newServer()

	// Feed arrivals in start-slot order, one tick per slot: requests for
	// slot s are submitted before tick s decides them.
	next := 0
	tickUpTo := func(s *metis.Server, slots int) {
		for slot := s.Epoch(); slot < slots; slot++ {
			for next < len(reqs) && reqs[next].Start <= slot {
				if _, err := s.Submit(reqs[next]); err != nil {
					log.Fatal(err)
				}
				next++
			}
			s.Tick(context.Background())
		}
	}

	// First half of the cycle, then snapshot (the daemon's crash point).
	tickUpTo(srv, metis.DefaultSlots/2)
	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		log.Fatal(err)
	}
	half := srv.Stats()
	fmt.Printf("epoch %2d   accepted %3d   rejected %3d   revenue %8.2f   snapshot %d bytes\n",
		half.Epoch, half.Accepted, half.Rejected, half.Revenue, snap.Len())

	// "Restart": a fresh server restores the image and finishes the cycle.
	restored := newServer()
	if err := restored.Restore(&snap); err != nil {
		log.Fatal(err)
	}
	tickUpTo(restored, metis.DefaultSlots)

	// Decision counts are per process, but revenue and purchase cost
	// travel in the snapshot, so the restored server's figures already
	// cover the whole cycle.
	st := restored.Stats()
	fmt.Printf("epoch %2d   accepted %3d   rejected %3d   revenue %8.2f   cost %8.2f\n",
		st.Epoch, half.Accepted+st.Accepted, half.Rejected+st.Rejected, st.Revenue, st.PurchasedCostTotal)
}
