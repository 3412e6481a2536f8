package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/wal"
	"metis/internal/wan"
)

// pathsServer is a server running the named metis policy (replanning
// every epoch) with candidate path sets of size k.
func pathsServer(t *testing.T, net *wan.Network, policy string, k int, l *wal.Log) *Server {
	t.Helper()
	p, err := NewPolicy(policy, nil, 1, core.Config{Theta: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Net: net, Epoch: time.Minute, PathsPerRequest: k,
		Policy: p, Check: true, WAL: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitAll(t *testing.T, s *Server, reqs []demand.Request) {
	t.Helper()
	for _, r := range reqs {
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
}

// sameDecisions fails unless servers a and b decided requests
// from..to byte-identically and hold equal ledgers.
func sameDecisions(t *testing.T, a, b *Server, from, to int) {
	t.Helper()
	for id := int64(from); id <= int64(to); id++ {
		da, err := json.Marshal(a.Decision(id))
		if err != nil {
			t.Fatal(err)
		}
		db, err := json.Marshal(b.Decision(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("request %d decided differently:\n%s\n%s", id, da, db)
		}
	}
	if !a.LedgerCopy().Equal(b.LedgerCopy()) {
		t.Fatal("ledgers differ")
	}
}

// checkServed fails unless s decided every request from..to without a
// policy error, accepted some of them, and holds a ledger that passes
// the spm invariant check.
func checkServed(t *testing.T, s *Server, from, to int) {
	t.Helper()
	accepted := 0
	for id := int64(from); id <= int64(to); id++ {
		d := s.Decision(id)
		if d == nil || d.Status == StatusQueued || strings.HasPrefix(d.Reason, "policy error") {
			t.Fatalf("%s: request %d: %+v", s.cfg.Policy.Name(), id, d)
		}
		if d.Status == StatusAccepted {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatalf("%s: none of requests %d..%d accepted", s.cfg.Policy.Name(), from, to)
	}
	if n := s.Stats().CheckFailures; n != 0 {
		t.Fatalf("%s: %d ledger check failures", s.cfg.Policy.Name(), n)
	}
	led := s.LedgerCopy()
	if err := spm.CheckLedger(led.Loads(), led.Purchased()); err != nil {
		t.Fatalf("%s: %v", s.cfg.Policy.Name(), err)
	}
}

// TestMetisPoliciesHonorPathsPerRequest: the metis policies plan over
// the same candidate path sets the tick's batch instance admits on, for
// any configured path-set size.
func TestMetisPoliciesHonorPathsPerRequest(t *testing.T) {
	// Large enough batches that Metis's plan depends on the path-set
	// size on B4.
	net := wan.B4()
	pool := genPool(t, net, 240, 1515)
	for _, k := range []int{1, 2, 5} {
		for _, policy := range []string{"metis", "metis-incremental"} {
			s := pathsServer(t, net, policy, k, nil)
			for i := 0; i < len(pool); i += 120 {
				submitAll(t, s, pool[i:i+120])
				s.Tick(context.Background())
				if i > 0 || policy != "metis" {
					continue
				}
				// The first full replan is a Metis solve over the
				// observed batch with k-path candidate sets.
				mp := s.cfg.Policy.(*MetisPolicy)
				inst, err := sched.NewInstance(net, s.cfg.Slots, mp.rp.Observed(), k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Solve(inst, mp.Config)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mp.plan, want.Charged) {
					t.Fatalf("k=%d: metis plan %v, want the %d-path solve's %v", k, mp.plan, k, want.Charged)
				}
			}
			checkServed(t, s, 1, len(pool))
		}
	}
}

// TestPathsPerRequestSurvivesRecovery: with a non-default path-set size
// a snapshot-restored server (either metis policy) and a WAL-replayed
// one (metis, whose redo replay is bit-identical) decide exactly as the
// uninterrupted server does.
func TestPathsPerRequestSurvivesRecovery(t *testing.T) {
	const k = 2
	net := wan.SubB4()
	pool := genPool(t, net, 80, 1616)

	for _, policy := range []string{"metis", "metis-incremental"} {
		orig := pathsServer(t, net, policy, k, nil)
		submitAll(t, orig, pool[:30])
		orig.Tick(context.Background())
		submitAll(t, orig, pool[30:50])
		orig.Tick(context.Background())
		submitAll(t, orig, pool[50:60]) // queued across the snapshot
		var img bytes.Buffer
		if err := orig.Snapshot(&img); err != nil {
			t.Fatal(err)
		}
		restored := pathsServer(t, net, policy, k, nil)
		if err := restored.Restore(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatalf("%s: restore: %v", policy, err)
		}
		for _, s := range []*Server{orig, restored} {
			s.Tick(context.Background())
			submitAll(t, s, pool[60:])
			s.Tick(context.Background())
		}
		// A snapshot carries no decision history: compare from the
		// first request queued across it.
		sameDecisions(t, orig, restored, 51, len(pool))
		checkServed(t, restored, 51, len(pool))
	}

	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashed := pathsServer(t, net, "metis", k, l)
	ctrl := pathsServer(t, net, "metis", k, nil)
	for _, s := range []*Server{crashed, ctrl} {
		submitAll(t, s, pool[:30])
		s.Tick(context.Background())
		submitAll(t, s, pool[30:50])
		s.Tick(context.Background())
		submitAll(t, s, pool[50:60])
	}
	l.Close()
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recovered := pathsServer(t, net, "metis", k, l2)
	if _, err := recovered.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{ctrl, recovered} {
		s.Tick(context.Background())
		submitAll(t, s, pool[60:])
		s.Tick(context.Background())
	}
	sameDecisions(t, ctrl, recovered, 1, len(pool))
	checkServed(t, recovered, 1, len(pool))
}

// TestServeRunEnumeratesEachPairOnce: over a multi-tick B4 run of
// metis-incremental (batch instance plus replanner Observe every tick)
// Yen's algorithm runs at most once per ordered DC pair, and every
// scorecard row's phase timers fit inside the tick's wall clock.
func TestServeRunEnumeratesEachPairOnce(t *testing.T) {
	net := wan.B4()
	pool := genPool(t, net, 2000, 1717)
	s, err := New(Config{Net: net, Epoch: time.Minute, Policy: incrementalPolicy(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	enumerated := func() float64 { return obs.Snapshot()["wan.paths.enumerated"] }
	before := enumerated()
	for i := 0; i < len(pool); i += 250 {
		submitAll(t, s, pool[i:i+250])
		s.Tick(context.Background())
	}
	pairs := net.NumDCs() * (net.NumDCs() - 1)
	if got := enumerated() - before; got > float64(pairs) {
		t.Fatalf("%v path enumerations over %d requests, want at most %d (one per ordered pair)", got, len(pool), pairs)
	}
	if st := s.Stats(); st.Accepted == 0 {
		t.Fatal("nothing accepted")
	}

	const rounding = 0.005 // ms: each timer truncates to whole microseconds
	var sawInstance, sawObserve bool
	for _, rec := range s.EpochRecords() {
		phases := rec.InstanceMillis + rec.ObserveMillis + rec.ReplanMillis
		if phases > rec.ElapsedMillis+rounding {
			t.Fatalf("epoch %d: instance %.3f + observe %.3f + replan %.3f ms exceed the tick's %.3f ms",
				rec.Epoch, rec.InstanceMillis, rec.ObserveMillis, rec.ReplanMillis, rec.ElapsedMillis)
		}
		sawInstance = sawInstance || rec.InstanceMillis > 0
		sawObserve = sawObserve || rec.ObserveMillis > 0
	}
	if !sawInstance || !sawObserve {
		t.Fatalf("phase timers never moved: instance %v, observe %v", sawInstance, sawObserve)
	}
}
