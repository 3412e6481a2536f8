package sched

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"metis/internal/demand"
	"metis/internal/wan"
)

func testInstance(t *testing.T, reqs []demand.Request) *Instance {
	t.Helper()
	inst, err := NewInstance(wan.SubB4(), 12, reqs, DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	net := wan.SubB4()
	ok := []demand.Request{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3, Rate: 0.2, Value: 1}}
	if _, err := NewInstance(net, 0, ok, 3); err == nil {
		t.Error("want error for zero slots")
	}
	if _, err := NewInstance(net, 12, ok, 0); err == nil {
		t.Error("want error for zero paths per request")
	}
	bad := []demand.Request{{ID: 0, Src: 0, Dst: 0, Start: 0, End: 3, Rate: 0.2, Value: 1}}
	if _, err := NewInstance(net, 12, bad, 3); err == nil {
		t.Error("want error for src == dst")
	}
}

func TestInstanceValidate(t *testing.T) {
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3, Rate: 0.2, Value: 1},
		{ID: 1, Src: 2, Dst: 4, Start: 1, End: 11, Rate: 0.4, Value: 3},
	}
	inst := testInstance(t, reqs)
	if err := inst.Validate(); err != nil {
		t.Fatalf("freshly built instance invalid: %v", err)
	}

	field := func(t *testing.T, err error) string {
		t.Helper()
		var verr *demand.ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("want *demand.ValidationError, got %T: %v", err, err)
		}
		return verr.Field
	}

	t.Run("mutated request out of horizon", func(t *testing.T) {
		bad := testInstance(t, reqs)
		bad.reqs[1].End = 40
		if got := field(t, bad.Validate()); got != demand.FieldWindow {
			t.Fatalf("field = %q, want %q", got, demand.FieldWindow)
		}
	})
	t.Run("empty path set", func(t *testing.T) {
		bad := testInstance(t, reqs)
		bad.paths[0] = nil
		if got := field(t, bad.Validate()); got != demand.FieldPaths {
			t.Fatalf("field = %q, want %q", got, demand.FieldPaths)
		}
	})
	t.Run("path link out of range", func(t *testing.T) {
		bad := testInstance(t, reqs)
		bad.paths[0] = []wan.Path{{Links: []int{999}, Price: 1}}
		if got := field(t, bad.Validate()); got != demand.FieldPaths {
			t.Fatalf("field = %q, want %q", got, demand.FieldPaths)
		}
	})
	t.Run("disconnected path walk", func(t *testing.T) {
		bad := testInstance(t, reqs)
		// A single link that does not start at the request's src (or
		// ends away from dst) must be rejected as a malformed walk.
		net := bad.Network()
		for e := 0; e < net.NumLinks(); e++ {
			if net.Link(e).From != bad.reqs[0].Src {
				bad.paths[0] = []wan.Path{{Links: []int{e}, Price: 1}}
				break
			}
		}
		if got := field(t, bad.Validate()); got != demand.FieldPaths {
			t.Fatalf("field = %q, want %q", got, demand.FieldPaths)
		}
	})
	t.Run("negative link price", func(t *testing.T) {
		// wan.NewNetwork is the only public constructor and already
		// rejects negative prices, so Instance.Validate's price
		// re-check can never fire through the public API; assert the
		// upstream gate holds.
		dcs := []wan.DC{{ID: 0, Name: "a", Region: wan.RegionEurope}, {ID: 1, Name: "b", Region: wan.RegionEurope}}
		links := []wan.Link{{ID: 0, From: 0, To: 1, Price: -1}, {ID: 1, From: 1, To: 0, Price: 1}}
		if _, err := wan.NewNetwork("neg", dcs, links); err == nil {
			t.Fatal("want NewNetwork error for negative price")
		}
	})
}

func TestInstancePathsEnumerated(t *testing.T) {
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 5, Start: 0, End: 11, Rate: 0.3, Value: 2},
		{ID: 1, Src: 0, Dst: 5, Start: 2, End: 4, Rate: 0.1, Value: 1},
	}
	inst := testInstance(t, reqs)
	if inst.NumRequests() != 2 {
		t.Fatalf("NumRequests = %d", inst.NumRequests())
	}
	for i := 0; i < 2; i++ {
		if inst.NumPaths(i) == 0 {
			t.Fatalf("request %d has no candidate paths", i)
		}
		if inst.NumPaths(i) > DefaultPathsPerRequest {
			t.Fatalf("request %d has %d paths, cap is %d", i, inst.NumPaths(i), DefaultPathsPerRequest)
		}
	}
	// Both requests share (src, dst); the memoized path sets must agree.
	for j := 0; j < inst.NumPaths(0); j++ {
		if inst.Path(0, j).Price != inst.Path(1, j).Price {
			t.Fatal("path memoization broken: different prices for same pair")
		}
	}
}

func TestScheduleAccounting(t *testing.T) {
	// One request 0→1 (direct link exists in SUB-B4) active slots 0..5,
	// rate 0.4: charged bandwidth on the direct link must be 1 unit.
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 5, Rate: 0.4, Value: 3},
	}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	if s.NumAccepted() != 0 {
		t.Fatal("new schedule must decline everything")
	}
	if s.Profit() != 0 {
		t.Fatalf("empty schedule profit %v, want 0", s.Profit())
	}

	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if s.NumAccepted() != 1 {
		t.Fatal("accepted count wrong after assign")
	}
	if got := s.Revenue(); got != 3 {
		t.Fatalf("revenue %v, want 3", got)
	}

	charged := s.ChargedBandwidth()
	var totalUnits int
	for _, c := range charged {
		totalUnits += c
	}
	wantUnits := len(inst.Path(0, 0).Links) // 1 unit per path link
	if totalUnits != wantUnits {
		t.Fatalf("charged %d total units, want %d", totalUnits, wantUnits)
	}
	wantCost := inst.Path(0, 0).Price // 1 unit on each path link
	if got := s.Cost(); math.Abs(got-wantCost) > 1e-12 {
		t.Fatalf("cost %v, want %v", got, wantCost)
	}
	if got := s.Profit(); math.Abs(got-(3-wantCost)) > 1e-12 {
		t.Fatalf("profit %v, want %v", got, 3-wantCost)
	}
}

func TestLoadsOverlapAndAggregation(t *testing.T) {
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 5, Rate: 0.4, Value: 1},
		{ID: 1, Src: 0, Dst: 1, Start: 3, End: 8, Rate: 0.5, Value: 1},
	}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	// Force both onto the same (cheapest) path.
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(1, 0); err != nil {
		t.Fatal(err)
	}
	loads := s.Loads()
	e := inst.Path(0, 0).Links[0]
	tests := []struct {
		slot int
		want float64
	}{
		{0, 0.4}, {3, 0.9}, {5, 0.9}, {6, 0.5}, {8, 0.5}, {9, 0},
	}
	for _, tt := range tests {
		if got := loads[e][tt.slot]; math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("load[%d][%d] = %v, want %v", e, tt.slot, got, tt.want)
		}
	}
	// Peak 0.9 → 1 unit.
	if got := s.ChargedBandwidth()[e]; got != 1 {
		t.Fatalf("charged = %d, want 1", got)
	}
}

func TestAssignErrors(t *testing.T) {
	reqs := []demand.Request{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 1, Rate: 0.2, Value: 1}}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	if err := s.Assign(5, 0); err == nil {
		t.Error("want error for bad request index")
	}
	if err := s.Assign(0, 99); err == nil {
		t.Error("want error for bad path index")
	}
	if err := s.Assign(0, Declined); err == nil {
		t.Error("want error for assigning Declined; use Decline")
	}
}

func TestFeasibleUnder(t *testing.T) {
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 5, Rate: 0.7, Value: 1},
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 5, Rate: 0.7, Value: 1},
	}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	_ = s.Assign(0, 0)
	_ = s.Assign(1, 0)

	if err := s.FeasibleUnder(inst.UniformCaps(2)); err != nil {
		t.Fatalf("feasible under 2 units, got %v", err)
	}
	err := s.FeasibleUnder(inst.UniformCaps(1))
	var viol *CapacityViolationError
	if !errors.As(err, &viol) {
		t.Fatalf("want CapacityViolationError, got %v", err)
	}
	if viol.Load <= float64(viol.Capacity) {
		t.Fatalf("violation inconsistent: %+v", viol)
	}
	if err := s.FeasibleUnder([]int{1}); err == nil {
		t.Error("want error for wrong capacity vector length")
	}
}

func TestUtilization(t *testing.T) {
	reqs := []demand.Request{
		// Active for all 12 slots, rate 0.5 on the direct 0→1 link.
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.5, Value: 1},
	}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	_ = s.Assign(0, 0)

	caps := inst.UniformCaps(1)
	st := s.Utilization(caps)
	// The used links carry 0.5 of their 1-unit capacity on average; the
	// max across links is 0.5 and the min is 0 (unused links).
	if math.Abs(st.Max-0.5) > 1e-12 {
		t.Errorf("Max = %v, want 0.5", st.Max)
	}
	if st.Min != 0 {
		t.Errorf("Min = %v, want 0", st.Min)
	}
	if st.Avg <= 0 || st.Avg >= 0.5 {
		t.Errorf("Avg = %v, want in (0, 0.5)", st.Avg)
	}
}

func TestUtilizationNoCapacity(t *testing.T) {
	reqs := []demand.Request{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 1, Rate: 0.2, Value: 1}}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	st := s.Utilization(inst.UniformCaps(0))
	if st.Max != 0 || st.Min != 0 || st.Avg != 0 {
		t.Fatalf("want zero stats, got %+v", st)
	}
}

func TestCloneIndependence(t *testing.T) {
	reqs := []demand.Request{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 1, Rate: 0.2, Value: 1}}
	inst := testInstance(t, reqs)
	s := NewSchedule(inst)
	_ = s.Assign(0, 0)
	c := s.Clone()
	c.Decline(0)
	if s.Choice(0) == Declined {
		t.Fatal("clone mutated original")
	}
}

func TestSubset(t *testing.T) {
	reqs := []demand.Request{
		{ID: 10, Src: 0, Dst: 1, Start: 0, End: 1, Rate: 0.2, Value: 1},
		{ID: 11, Src: 2, Dst: 3, Start: 0, End: 1, Rate: 0.3, Value: 2},
		{ID: 12, Src: 4, Dst: 5, Start: 0, End: 1, Rate: 0.4, Value: 3},
	}
	inst := testInstance(t, reqs)
	sub, err := inst.Subset([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumRequests() != 2 {
		t.Fatalf("subset has %d requests", sub.NumRequests())
	}
	if sub.Request(0).ID != 12 || sub.Request(1).ID != 10 {
		t.Fatalf("subset order wrong: %v, %v", sub.Request(0).ID, sub.Request(1).ID)
	}
	if _, err := inst.Subset([]int{7}); err == nil {
		t.Fatal("want error for out-of-range index")
	}
}

func TestCeilUnits(t *testing.T) {
	tests := []struct {
		in   float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{0.3, 1},
		{1.0, 1},
		{1.0 + 1e-12, 1}, // floating noise absorbed
		{1.1, 2},
		{2.0000000001, 2},
		{2.001, 3},
	}
	for _, tt := range tests {
		if got := CeilUnits(tt.in); got != tt.want {
			t.Errorf("CeilUnits(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// TestExtendMatchesNewInstance: growing an instance batch by batch with
// Extend gives the same requests, path-set size and candidate paths as
// building it in one NewInstance call, on the same network (shared path
// memo) and on a fresh copy of the topology (memo filled independently).
func TestExtendMatchesNewInstance(t *testing.T) {
	net := wan.B4()
	gen, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.GenerateN(90)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		inc, err := NewInstance(net, demand.DefaultSlots, reqs[:10], k)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range [][2]int{{10, 10}, {10, 45}, {45, 46}, {46, 90}} {
			if inc, err = inc.Extend(reqs[cut[0]:cut[1]]); err != nil {
				t.Fatal(err)
			}
		}
		for _, other := range []*wan.Network{net, wan.B4()} {
			whole, err := NewInstance(other, demand.DefaultSlots, reqs, k)
			if err != nil {
				t.Fatal(err)
			}
			if inc.PathsPerRequest() != k || whole.PathsPerRequest() != k {
				t.Fatalf("k=%d: path-set sizes %d and %d", k, inc.PathsPerRequest(), whole.PathsPerRequest())
			}
			if !reflect.DeepEqual(inc.reqs, whole.reqs) || !reflect.DeepEqual(inc.paths, whole.paths) {
				t.Fatalf("k=%d: Extend chain differs from NewInstance", k)
			}
		}
	}
}
