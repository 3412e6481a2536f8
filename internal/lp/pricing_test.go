package lp

import (
	"math"
	"testing"

	"metis/internal/obs"
	"metis/internal/stats"
)

// TestPricingRulesAgree sweeps randomized instances and requires the
// package's pricing — sectional Dantzig with Bland's rule as the
// anti-cycling floor — to agree with refSolve's pure Bland tableau on
// status and, at optimality, on the objective within relative 1e-9.
// Pricing picks the path to the optimum, never the optimum. Every
// failure message carries the trial seed; rebuild with
// randomFuzzLP(stats.NewRNG(seed), m, n, density) to replay.
func TestPricingRulesAgree(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		seed := int64(9300 + trial)
		shape := stats.NewRNG(seed)
		m := 4 + shape.Intn(16)
		n := 4 + shape.Intn(32)
		density := shape.Uniform(0.1, 0.9)
		fz := randomFuzzLP(stats.NewRNG(seed), m, n, density)

		sol, err := fz.build(t).Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		refStatus, refObj := refSolve(fz)
		if sol.Status != StatusOptimal || refStatus != refOptimal {
			t.Fatalf("seed %d (m=%d n=%d ρ=%.2f): status %v, reference %v; want both optimal",
				seed, m, n, density, sol.Status, refStatus)
		}
		if tol := 1e-9 * (1 + math.Abs(refObj)); math.Abs(sol.Objective-refObj) > tol {
			t.Fatalf("seed %d (m=%d n=%d ρ=%.2f): objective %.15g != reference %.15g (Δ=%g)",
				seed, m, n, density, sol.Objective, refObj, sol.Objective-refObj)
		}
	}
}

// bealeProblem is the classic cycling-prone instance (Beale); its
// optimum is -0.05 in Minimize sense.
func bealeProblem(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem(Minimize)
	x4 := mustVar(t, p, -0.75, 0, math.Inf(1), "x4")
	x5 := mustVar(t, p, 150, 0, math.Inf(1), "x5")
	x6 := mustVar(t, p, -0.02, 0, math.Inf(1), "x6")
	x7 := mustVar(t, p, 6, 0, math.Inf(1), "x7")
	c1 := mustCon(t, p, LE, 0, "c1")
	c2 := mustCon(t, p, LE, 0, "c2")
	c3 := mustCon(t, p, LE, 1, "c3")
	mustTerm(t, p, c1, x4, 0.25)
	mustTerm(t, p, c1, x5, -60)
	mustTerm(t, p, c1, x6, -0.04)
	mustTerm(t, p, c1, x7, 9)
	mustTerm(t, p, c2, x4, 0.5)
	mustTerm(t, p, c2, x5, -90)
	mustTerm(t, p, c2, x6, -0.02)
	mustTerm(t, p, c2, x7, 3)
	mustTerm(t, p, c3, x6, 1)
	return p
}

// TestCyclingInstanceBeale: the default solve terminates on Beale's
// instance at its optimum.
func TestCyclingInstanceBeale(t *testing.T) {
	sol, err := bealeProblem(t).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective %v, want -0.05", sol.Objective)
	}
}

// degenerateConeLP is a zero-rhs, maximally degenerate LP: maximize
// Σ(1+u_j)·x_j over x ∈ [0,1]ⁿ subject to m rows Σ ±x_j ≤ 0, each sign
// drawn with probability density. Every basis at the origin is
// degenerate, so Dantzig pricing walks a long zero-step plateau.
func degenerateConeLP(rng *stats.RNG, m, n int, density float64) fuzzLP {
	fz := fuzzLP{sense: Maximize}
	for j := 0; j < n; j++ {
		fz.obj = append(fz.obj, 1+rng.Float64())
		fz.hi = append(fz.hi, 1)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			if rng.Float64() < density {
				row[j] = 1
				if rng.Float64() < 0.5 {
					row[j] = -1
				}
			}
		}
		fz.rows = append(fz.rows, row)
		fz.rels = append(fz.rels, LE)
		fz.rhs = append(fz.rhs, 0)
	}
	return fz
}

// TestBlandFallbackLadder drives the primal simplex into a degenerate
// plateau long enough that sectional Dantzig hands over to Bland's
// rule — the anti-cycling floor no option selects — and requires the
// ladder to fire (lp.pricing.fallbacks) and the solve to still end at
// refSolve's optimum. On this instance the cone admits only x = 0, so
// the optimum is 0, reached after about 300 iterations with one
// hand-over to Bland.
func TestBlandFallbackLadder(t *testing.T) {
	fz := degenerateConeLP(stats.NewRNG(3), 40, 40, 0.3)
	snap := obs.Snapshot()
	sol, err := fz.build(t).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := delta(snap, "lp.pricing.fallbacks")
	if d["lp.pricing.fallbacks"] < 1 {
		t.Fatalf("lp.pricing.fallbacks moved by %v, want >= 1 (the Bland rung never ran)", d["lp.pricing.fallbacks"])
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	refStatus, refObj := refSolve(fz)
	if refStatus != refOptimal {
		t.Fatalf("reference status %v, want optimal", refStatus)
	}
	if math.Abs(sol.Objective-refObj) > 1e-6 {
		t.Fatalf("objective %.12g != reference %.12g (iters %d)", sol.Objective, refObj, sol.Iters)
	}
	t.Logf("objective %g in %d iterations", sol.Objective, sol.Iters)
}
