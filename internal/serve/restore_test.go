package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"metis/internal/demand"
	"metis/internal/spm"
	"metis/internal/wal"
	"metis/internal/wan"
)

// midCycleImage returns a metis-incremental snapshot taken mid-cycle:
// two committed ticks (so the image carries an incumbent, a plan and a
// relaxation guide) and ten arrivals still queued.
func midCycleImage(tb testing.TB) []byte {
	tb.Helper()
	pool := genPool(tb, wan.SubB4(), 40, 515)
	s, err := New(Config{Net: wan.SubB4(), Epoch: time.Minute, Policy: incrementalPolicy(tb, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	submit := func(reqs []demand.Request) {
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				tb.Fatal(err)
			}
		}
	}
	submit(pool[:20])
	s.Tick(context.Background())
	submit(pool[20:30])
	s.Tick(context.Background())
	submit(pool[30:])
	var img bytes.Buffer
	if err := s.Snapshot(&img); err != nil {
		tb.Fatal(err)
	}
	return img.Bytes()
}

// mutateImage decodes img, applies fn to the generic JSON tree and
// re-encodes it.
func mutateImage(t *testing.T, img []byte, fn func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(img, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRejectsInvalidImages: an image that decodes but describes
// an impossible state returns a *SnapshotError and leaves the server
// untouched — a valid image restores onto it afterwards.
func TestRestoreRejectsInvalidImages(t *testing.T) {
	img := midCycleImage(t)
	firstQueued := func(m map[string]any) map[string]any {
		return m["queue"].([]any)[0].(map[string]any)
	}
	policy := func(m map[string]any) map[string]any { return m["policy"].(map[string]any) }
	cases := []struct {
		name  string
		field string
		mut   func(m map[string]any)
	}{
		{"negative queue id", "queue[0].id", func(m map[string]any) { firstQueued(m)["id"] = -3 }},
		{"queue id at nextId", "queue[0].id", func(m map[string]any) { firstQueued(m)["id"] = m["nextId"] }},
		{"duplicate queue id", "queue[1].id", func(m map[string]any) {
			q := m["queue"].([]any)
			q[1].(map[string]any)["id"] = q[0].(map[string]any)["id"]
		}},
		{"invalid queued request", "queue[0].request", func(m map[string]any) {
			firstQueued(m)["request"].(map[string]any)["end"] = 99
		}},
		{"negative epoch", "epoch", func(m map[string]any) { m["epoch"] = -1 }},
		{"epoch near overflow", "epoch", func(m map[string]any) { m["epoch"] = int64(1) << 62 }},
		{"zero nextId", "nextId", func(m map[string]any) { m["nextId"] = 0 }},
		{"overcommitted ledger", "ledger", func(m map[string]any) {
			m["ledger"].(map[string]any)["purchased"].([]any)[0] = 0
			m["ledger"].(map[string]any)["loads"].([]any)[0].([]any)[0] = 0.5
		}},
		{"short plan", "policy.plan", func(m map[string]any) { policy(m)["plan"] = []int{1, 2} }},
		{"negative plan", "policy.plan[0]", func(m map[string]any) { policy(m)["plan"].([]any)[0] = -1 }},
		{"guide row length", "policy.relaxedX", func(m map[string]any) {
			policy(m)["relaxedX"].([]any)[0] = []float64{0.5}
		}},
		{"incumbent path", "policy.incumbent", func(m map[string]any) { policy(m)["incumbent"].([]any)[0] = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Net: wan.SubB4(), Epoch: time.Minute, Policy: incrementalPolicy(t, 1)})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Restore(bytes.NewReader(mutateImage(t, img, tc.mut)))
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("restore returned %v, want a *SnapshotError", err)
			}
			if se.Field != tc.field {
				t.Fatalf("error names field %q, want %q (%v)", se.Field, tc.field, err)
			}
			if s.Epoch() != 0 || s.Stats().QueueDepth != 0 || s.policyImage != nil || !s.LedgerCopy().Equal(NewLedger(wan.SubB4(), s.cfg.Slots)) {
				t.Fatal("rejected image left state behind")
			}
			if err := s.Restore(bytes.NewReader(img)); err != nil {
				t.Fatalf("valid image after a rejected one: %v", err)
			}
		})
	}
}

// TestRestoreQueueFarBehindNextID: a queued id far below nextId is a
// valid image, and the first tick's decision-history pruning must not
// walk the whole id gap.
func TestRestoreQueueFarBehindNextID(t *testing.T) {
	img := mutateImage(t, midCycleImage(t), func(m map[string]any) { m["nextId"] = int64(1) << 40 })
	s, err := New(Config{Net: wan.SubB4(), Epoch: time.Minute, Policy: incrementalPolicy(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if floor := int64(1)<<40 - int64(s.cfg.DecisionRetention); s.pruneFrom < floor {
		t.Fatalf("pruning starts at id %d, below the retention window's %d", s.pruneFrom, floor)
	}
	s.Tick(context.Background())
	if rec := lastRecord(t, s); rec.Batch != 10 {
		t.Fatalf("first tick decided %d requests, want the 10 queued", rec.Batch)
	}
}

// queueWaitBound asserts that the first post-recovery tick's queue wait
// is bounded by the wall time since recovery began.
func queueWaitBound(t *testing.T, s *Server, recoveredAt time.Time) {
	t.Helper()
	s.Tick(context.Background())
	rec := lastRecord(t, s)
	if rec.Batch == 0 {
		t.Fatal("first post-recovery tick decided nothing")
	}
	bound := float64(time.Since(recoveredAt).Microseconds()) / 1e3
	if rec.QueueWaitMaxMillis > bound || rec.QueueWaitMeanMillis > bound {
		t.Fatalf("queue wait max %.3f ms / mean %.3f ms exceeds the %.3f ms since recovery",
			rec.QueueWaitMaxMillis, rec.QueueWaitMeanMillis, bound)
	}
}

// TestRestoreQueueWaitFromRecovery: arrivals re-queued from a snapshot
// count their queue wait from the restore.
func TestRestoreQueueWaitFromRecovery(t *testing.T) {
	img := midCycleImage(t)
	time.Sleep(20 * time.Millisecond) // the snapshot ages before the restart
	s, err := New(Config{Net: wan.SubB4(), Epoch: time.Minute, Policy: incrementalPolicy(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	if err := s.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	queueWaitBound(t, s, at)
}

// TestWALRecoveryQueueWaitFromRecovery: arrivals re-queued by WAL
// replay count their queue wait from the replay.
func TestWALRecoveryQueueWaitFromRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashed := walServer(t, l, nil)
	for _, r := range genPool(t, wan.SubB4(), 10, 99) {
		if _, err := crashed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	time.Sleep(20 * time.Millisecond) // the log ages before the restart

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recovered := walServer(t, l2, nil)
	at := time.Now()
	if st, err := recovered.RecoverWAL(); err != nil || st.Arrivals != 10 {
		t.Fatalf("recover: %+v, %v; want 10 arrivals", st, err)
	}
	queueWaitBound(t, recovered, at)
}

// TestWALRecoveryRejectsBadArrivalID: a logged arrival whose id is not
// positive is a recovery error, not an out-of-range shard index.
func TestWALRecoveryRejectsBadArrivalID(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := l.Append(walRecArrival, mustJSON(walArrival{ID: -3, Req: goodRequest(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(off); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := walServer(t, l2, nil).RecoverWAL(); err == nil {
		t.Fatal("recovered an arrival with id -3")
	}
}

// FuzzRestore feeds arbitrary snapshot JSON to a metis-incremental
// server. Every input must either be refused with an error, leaving the
// server empty, or restore into a state that passes spm.CheckLedger and
// survives a tick — never a panic.
func FuzzRestore(f *testing.F) {
	img := midCycleImage(f)
	f.Add(img)
	f.Add(bytes.Replace(img, []byte(`"id": 31`), []byte(`"id": -3`), 1))
	f.Add([]byte(`{"version": 3, "network": "SUB-B4"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(Config{Net: wan.SubB4(), Epoch: time.Minute, Policy: incrementalPolicy(t, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			if s.Epoch() != 0 || s.Stats().QueueDepth != 0 || s.policyImage != nil {
				t.Fatalf("refused image (%v) left state behind", err)
			}
			return
		}
		led := s.LedgerCopy()
		if err := spm.CheckLedger(led.Loads(), led.Purchased()); err != nil {
			t.Fatalf("restored ledger: %v", err)
		}
		s.Tick(context.Background())
		led = s.LedgerCopy()
		if err := spm.CheckLedger(led.Loads(), led.Purchased()); err != nil {
			t.Fatalf("ledger after a post-restore tick: %v", err)
		}
	})
}
