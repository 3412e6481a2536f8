package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"metis/internal/demand"
	"metis/internal/spm"
	"metis/internal/wal"
	"metis/internal/wan"
)

func walServer(t *testing.T, l *wal.Log, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Net: wan.SubB4(), Epoch: time.Minute, WAL: l}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWALRecoveryRoundTrip: a WAL-backed server crashes with committed
// epochs and a queued tail; a fresh process replays the log (no
// snapshot at all) and finishes the schedule exactly like an
// uninterrupted control run.
func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	pool := genPool(t, wan.SubB4(), 40, 2026)

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashed := walServer(t, l, nil)
	for _, r := range pool[:20] {
		if _, err := crashed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	crashed.Tick(context.Background())
	for _, r := range pool[20:30] {
		if _, err := crashed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// Crash. Every acked arrival and the committed tick are on disk;
	// the in-memory server is abandoned.
	l.Close()

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := walServer(t, l2, nil)
	st, err := recovered.RecoverWAL()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Arrivals != 30 || st.Ticks != 1 {
		t.Fatalf("recovered %d arrivals / %d ticks, want 30 / 1", st.Arrivals, st.Ticks)
	}
	if recovered.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", recovered.Epoch())
	}

	ctrl := newTestServer(t, func(c *Config) { c.Epoch = time.Minute })
	for _, r := range pool[:20] {
		if _, err := ctrl.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.Tick(context.Background())
	for _, r := range pool[20:30] {
		if _, err := ctrl.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	// Both finish the schedule.
	for _, s := range []*Server{recovered, ctrl} {
		for _, r := range pool[30:] {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		s.Tick(context.Background())
	}

	if !recovered.LedgerCopy().Equal(ctrl.LedgerCopy()) {
		t.Fatal("recovered ledger differs from control")
	}
	sr, sc := recovered.Stats(), ctrl.Stats()
	if sr.Revenue != sc.Revenue || sr.PurchasedCost != sc.PurchasedCost {
		t.Fatalf("profit diverged: recovered %v/%v, control %v/%v",
			sr.Revenue, sr.PurchasedCost, sc.Revenue, sc.PurchasedCost)
	}
	for id := int64(1); id <= int64(len(pool)); id++ {
		dr, dc := recovered.Decision(id), ctrl.Decision(id)
		if dr == nil || dc == nil {
			t.Fatalf("decision %d missing (recovered %v, control %v)", id, dr != nil, dc != nil)
		}
		if dr.Status != dc.Status {
			t.Fatalf("request %d: recovered %s, control %s", id, dr.Status, dc.Status)
		}
	}
	if err := spm.CheckLedger(recovered.LedgerCopy().Loads(), recovered.LedgerCopy().Purchased()); err != nil {
		t.Fatalf("ledger invariants: %v", err)
	}
}

// TestWALCorruptTailRecovery: disk damage at the log's tail loses at
// most the damaged suffix — recovery admits a clean prefix of the
// acked arrivals, never a phantom, and the server keeps working.
func TestWALCorruptTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	pool := genPool(t, wan.SubB4(), 12, 77)

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := walServer(t, l, nil)
	for _, r := range pool {
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Chop into the last record.
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", last.Seq))
	if err := os.Truncate(path, last.Size-5); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := walServer(t, l2, nil)
	st, err := rec.RecoverWAL()
	if err != nil {
		t.Fatalf("recover after tail damage: %v", err)
	}
	if st.Arrivals != len(pool)-1 {
		t.Fatalf("recovered %d arrivals, want %d (exactly the undamaged prefix)", st.Arrivals, len(pool)-1)
	}
	// The recovered arrivals are the exact prefix, same requests.
	for id := int64(1); id <= int64(st.Arrivals); id++ {
		d := rec.Decision(id)
		if d == nil || d.Status != StatusQueued {
			t.Fatalf("arrival %d not re-queued (%+v)", id, d)
		}
		if d.Request.Src != pool[id-1].Src || d.Request.Dst != pool[id-1].Dst || d.Request.Value != pool[id-1].Value {
			t.Fatalf("arrival %d does not match what was acked", id)
		}
	}
	if d := rec.Decision(int64(len(pool))); d != nil {
		t.Fatalf("phantom decision for the torn arrival: %+v", d)
	}
	// The repaired log accepts new work.
	if _, err := rec.Submit(pool[len(pool)-1]); err != nil {
		t.Fatalf("submit after repair: %v", err)
	}
	rec.Tick(context.Background())
	if q := rec.Stats().QueueDepth; q != 0 {
		t.Fatalf("queue depth %d after tick", q)
	}
}

// TestSnapshotRestoreAcrossCycleWrap: a snapshot taken in the last
// slots of a billing cycle restores into a server that then ticks
// through the cycle wrap (ledger + policy reset) exactly like the
// original — the reset happens from restored state, not fresh state.
func TestSnapshotRestoreAcrossCycleWrap(t *testing.T) {
	net := wan.SubB4()
	pool := genPool(t, net, 60, 909)
	mk := func() *Server {
		s, err := New(Config{
			Net:    net,
			Epoch:  time.Minute,
			Policy: incrementalPolicy(t, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	submit := func(s *Server, reqs []demand.Request) {
		t.Helper()
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	orig := mk()
	submit(orig, pool[:20])
	orig.Tick(context.Background()) // epoch 0 → 1
	submit(orig, pool[20:30])
	orig.Tick(context.Background()) // epoch 1 → 2
	// Spin the cycle forward to its final slot (epoch Slots-1).
	for orig.Epoch() < demand.DefaultSlots-1 {
		orig.Tick(context.Background())
	}
	submit(orig, pool[30:40]) // queued across the snapshot

	var img bytes.Buffer
	if err := orig.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != demand.DefaultSlots-1 {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), demand.DefaultSlots-1)
	}

	// Both decide the queued batch in the cycle's last slot, then tick
	// across the wrap into slot 0 of the next cycle, then take fresh
	// work in the new cycle.
	step := func(s *Server) {
		s.Tick(context.Background()) // last slot: decides pool[30:40]
		submit(s, pool[40:50])
		s.Tick(context.Background()) // slot 0: ledger + policy reset, then decides
		submit(s, pool[50:])
		s.Tick(context.Background()) // slot 1 of the new cycle
	}
	step(orig)
	step(restored)

	if co, cr := orig.Epoch()/demand.DefaultSlots, restored.Epoch()/demand.DefaultSlots; co != 1 || cr != 1 {
		t.Fatalf("cycle after wrap: orig %d, restored %d, want 1", co, cr)
	}
	if !restored.LedgerCopy().Equal(orig.LedgerCopy()) {
		t.Fatal("ledgers diverged across the cycle wrap")
	}
	for id := int64(31); id <= 60; id++ {
		do, dr := orig.Decision(id), restored.Decision(id)
		if do == nil || dr == nil {
			t.Fatalf("decision %d missing (orig %v, restored %v)", id, do != nil, dr != nil)
		}
		if do.Status != dr.Status {
			t.Fatalf("request %d: original %s, restored %s", id, do.Status, dr.Status)
		}
		if len(do.Links) != len(dr.Links) {
			t.Fatalf("request %d: paths differ (%v vs %v)", id, do.Links, dr.Links)
		}
		for i := range do.Links {
			if do.Links[i] != dr.Links[i] {
				t.Fatalf("request %d: paths differ (%v vs %v)", id, do.Links, dr.Links)
			}
		}
	}
	so, sr := orig.Stats(), restored.Stats()
	if so.Committed != sr.Committed || so.PurchasedUnits != sr.PurchasedUnits || so.Revenue != sr.Revenue {
		t.Fatalf("post-wrap stats diverged: orig %+v vs restored %+v", so, sr)
	}
}

// TestStandbyRefusesTraffic: a standby answers health checks but takes
// no submits and performs no ticks until promoted.
func TestStandbyRefusesTraffic(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetStandby()
	if _, err := s.Submit(goodRequest(1)); err != ErrStandby {
		t.Fatalf("standby submit err = %v, want ErrStandby", err)
	}
	s.Tick(context.Background())
	if s.Epoch() != 0 {
		t.Fatalf("standby ticked to epoch %d", s.Epoch())
	}
	h := s.Health()
	if h.Status != HealthStandby || !h.Healthy() {
		t.Fatalf("standby health %+v", h)
	}
	s.SetLeader()
	if _, err := s.Submit(goodRequest(1)); err != nil {
		t.Fatalf("promoted submit err = %v", err)
	}
	s.Tick(context.Background())
	if s.Epoch() != 1 {
		t.Fatalf("promoted server did not tick (epoch %d)", s.Epoch())
	}
}

// TestPurchasedCostTotalAcrossWrap: /v1/stats reports the purchase cost
// of every billing cycle, not only the current ledger's, so revenue −
// purchasedCostTotal is the realized profit the scorecard rows add up
// to — and the total survives both snapshot restore and WAL replay.
func TestPurchasedCostTotalAcrossWrap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var pool []demand.Request
	for i := 0; i < 20; i++ {
		pool = append(pool, goodRequest(5+float64(i)))
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := walServer(t, l, nil)
	submit := func(s *Server, reqs []demand.Request) {
		t.Helper()
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(orig, pool[:10])
	orig.Tick(context.Background())
	firstCycle := orig.Stats().PurchasedCost
	if firstCycle <= 0 {
		t.Fatal("first cycle bought nothing; the test needs purchases on both sides of the wrap")
	}
	for orig.Epoch() < demand.DefaultSlots+1 {
		orig.Tick(context.Background())
	}
	submit(orig, pool[10:])
	orig.Tick(context.Background())

	st := orig.Stats()
	if st.Cycle != 1 || st.PurchasedCost <= 0 {
		t.Fatalf("cycle %d with purchase cost %v; want purchases in cycle 1", st.Cycle, st.PurchasedCost)
	}
	if want := firstCycle + st.PurchasedCost; st.PurchasedCostTotal != want {
		t.Fatalf("purchasedCostTotal %v, want %v + %v", st.PurchasedCostTotal, firstCycle, st.PurchasedCost)
	}
	var profit float64
	for _, rec := range orig.EpochRecords() {
		profit += rec.ProfitDelta
	}
	if d := st.Revenue - st.PurchasedCostTotal - profit; d > 1e-9 || d < -1e-9 {
		t.Fatalf("revenue − purchasedCostTotal = %v, scorecard profit %v", st.Revenue-st.PurchasedCostTotal, profit)
	}

	var img bytes.Buffer
	if err := orig.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	restored := newTestServer(t, func(c *Config) { c.Epoch = time.Minute })
	if err := restored.Restore(&img); err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats(); got.PurchasedCostTotal != st.PurchasedCostTotal || got.Revenue != st.Revenue {
		t.Fatalf("restored revenue/total cost %v/%v, want %v/%v", got.Revenue, got.PurchasedCostTotal, st.Revenue, st.PurchasedCostTotal)
	}
	l.Close()

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed := walServer(t, l2, nil)
	if _, err := replayed.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if got := replayed.Stats(); got.PurchasedCostTotal != st.PurchasedCostTotal || got.Revenue != st.Revenue {
		t.Fatalf("replayed revenue/total cost %v/%v, want %v/%v", got.Revenue, got.PurchasedCostTotal, st.Revenue, st.PurchasedCostTotal)
	}
}
