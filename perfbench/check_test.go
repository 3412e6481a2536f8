package main

import (
	"strings"
	"testing"
	"time"

	"metis"
)

func TestDecideSlotIsTheLatestPossibleDecisionSlot(t *testing.T) {
	c := clock{epoch: 100 * time.Millisecond, slots: 12}
	for _, tc := range []struct {
		p    time.Duration
		want int
	}{
		{0, 2},                        // ticks 1 and 2 can decide it
		{99 * time.Millisecond, 2},    // still before tick 1
		{100 * time.Millisecond, 3},   // tick 1 has started: ticks 2 and 3
		{950 * time.Millisecond, 11},  // ticks 10 and 11
		{1050 * time.Millisecond, 11}, // ticks 11 and 12 (slot 0 of the next cycle)
		{1150 * time.Millisecond, 1},  // ticks 12 and 13: next cycle, slots 0 and 1
	} {
		if got := c.decideSlot(tc.p); got != tc.want {
			t.Errorf("decideSlot(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestFitWindowStaysInsideTheDecidableSlots(t *testing.T) {
	net := metis.B4()
	reqs, err := metis.GenerateWorkload(net, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 12; from++ {
		for _, r := range reqs {
			f := fitWindow(r, from, 12)
			if f.Start < from || f.End > 11 || f.Start > f.End {
				t.Fatalf("fitWindow(%+v, %d) = [%d, %d]", r, from, f.Start, f.End)
			}
			d, fd := r.End-r.Start+1, f.End-f.Start+1
			switch {
			case d <= 12-from && (fd != d || f.Value != r.Value):
				t.Fatalf("window of %d slots fits from %d but became %d slots, value %v → %v", d, from, fd, r.Value, f.Value)
			case d > 12-from && fd != 12-from:
				t.Fatalf("window of %d slots from %d kept %d slots", d, from, fd)
			}
			if got, want := f.Value/float64(fd), r.Value/float64(d); got-want > 1e-9 || want-got > 1e-9 {
				t.Fatalf("value per slot %v, want %v", got, want)
			}
			if err := f.Validate(net, 12); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestScheduleIsDeterministicAndCycleAligned(t *testing.T) {
	net := metis.B4()
	c := clock{epoch: 100 * time.Millisecond, slots: 12}
	m := mix{batchSize: 100, batchRate: 4900, singleRate: 100, span: 2 * cycleDur}
	a, err := schedule(net, c, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(net, c, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	other, err := schedule(net, c, m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != len(other) {
		t.Fatalf("lengths %d, %d, %d", len(a), len(b), len(other))
	}
	same, total, singles := true, 0, 0
	for i := range a {
		if a[i].due != b[i].due || string(a[i].body) != string(b[i].body) {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		if string(a[i].body) != string(other[i].body) {
			same = false
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		total += a[i].n
		if a[i].single {
			singles++
			if a[i].sent.Start < c.decideSlot(a[i].due) {
				t.Fatalf("single due %v starts at slot %d, before its decision slot", a[i].due, a[i].sent.Start)
			}
		}
	}
	if same {
		t.Fatal("seeds 5 and 6 gave the same requests")
	}
	// 2.4 s at 49 batch POSTs/s is 117.6 gaps: POSTs at 0, 1/49 s, …,
	// 117/49 s; singles at 5 ms, 15 ms, …, 2395 ms.
	if total != 118*100+240 || singles != 240 {
		t.Fatalf("%d requests (%d singles) over %v, want %d (240)", total, singles, m.span, 118*100+240)
	}
}

func TestCheckDecisionRejectsWhatTheDaemonMustNotDo(t *testing.T) {
	net := metis.B4()
	// B4 link 0 runs From→To; find a two-link path to test a walk.
	l0 := net.Link(0)
	second := -1
	for e := 0; e < net.NumLinks(); e++ {
		if l := net.Link(e); l.From == l0.To && l.To != l0.From {
			second = e
			break
		}
	}
	if second < 0 {
		t.Fatal("no two-hop path from link 0")
	}
	dst := net.Link(second).To
	sent := metis.Request{Src: l0.From, Dst: dst, Start: 4, End: 7, Rate: 0.2, Value: 3}
	good := metis.ServeDecision{ID: 9, Status: "accepted", Links: []int{0, second}, Slot: 4, Request: sent}
	good.Request.ID = 9
	if err := checkDecision(net, &good, sent); err != nil {
		t.Fatalf("valid decision rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mut  func(d *metis.ServeDecision)
		want string
	}{
		"still queued":       {func(d *metis.ServeDecision) { d.Status = "queued" }, "not terminal"},
		"request changed":    {func(d *metis.ServeDecision) { d.Request.Rate = 0.3 }, "echoed request"},
		"path broken":        {func(d *metis.ServeDecision) { d.Links = []int{second, 0} }, "leaves DC"},
		"path short":         {func(d *metis.ServeDecision) { d.Links = []int{0} }, "ends at DC"},
		"no path":            {func(d *metis.ServeDecision) { d.Links = nil }, "without a path"},
		"link repeated":      {func(d *metis.ServeDecision) { d.Links = []int{0, 0} }, "repeated link"},
		"decided too late":   {func(d *metis.ServeDecision) { d.Slot = 8 }, "accepted in slot 8"},
		"rejected with path": {func(d *metis.ServeDecision) { d.Status = "rejected" }, "rejected with links"},
	} {
		d := good
		tc.mut(&d)
		err := checkDecision(net, &d, sent)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

func TestPlanRunnerFailsAnInstanceThatDoesNotRepeat(t *testing.T) {
	var ms []float64
	list, err := buildPlanList(1, 0, 1, &ms)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	p := &planRunner{rep: rep, first: map[int]planOutcome{0: {profit: -1, iters: 0}}}
	p.solve(list, 0, metis.Config{})
	if rep.ok() || rep.failed != 1 || !strings.Contains(strings.Join(rep.problems, "\n"), "not deterministic") {
		t.Fatalf("problems %q, failed %d", rep.problems, rep.failed)
	}
	// The same instance solved twice for real repeats exactly.
	rep2 := newReport()
	p2 := &planRunner{rep: rep2, first: map[int]planOutcome{}}
	p2.solve(list, 0, metis.Config{})
	p2.solve(list, 0, metis.Config{})
	if !rep2.ok() || rep2.attempted != 2 || rep2.failed != 0 {
		t.Fatalf("problems %q", rep2.problems)
	}
}
