package wan

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// freshPaths enumerates src→dst candidate paths straight from Yen's
// algorithm on the network's graph, bypassing the memo.
func freshPaths(t *testing.T, n *Network, src, dst, k int) []Path {
	t.Helper()
	gps, err := n.g.KShortestPaths(src, dst, k)
	if err != nil {
		t.Fatalf("KShortestPaths(%d, %d, %d): %v", src, dst, k, err)
	}
	out := make([]Path, len(gps))
	for i, gp := range gps {
		out[i] = Path{Links: append([]int(nil), gp.Edges...), Price: gp.Cost}
	}
	return out
}

// checkMemoPaths compares every memoized (src, dst, k ≤ 5) path set of n
// with a fresh enumeration: same links in the same order, prices
// bit-equal.
func checkMemoPaths(t *testing.T, n *Network, want map[pathKey][]Path) {
	t.Helper()
	for key, w := range want {
		got, err := n.Paths(key.src, key.dst, key.k)
		if err != nil {
			t.Errorf("Paths%v: %v", key, err)
			return
		}
		if len(got) != len(w) {
			t.Errorf("Paths%v: %d paths, want %d", key, len(got), len(w))
			return
		}
		for i := range w {
			if !reflect.DeepEqual(got[i].Links, w[i].Links) ||
				math.Float64bits(got[i].Price) != math.Float64bits(w[i].Price) {
				t.Errorf("Paths%v[%d] = %+v, want %+v", key, i, got[i], w[i])
				return
			}
		}
	}
}

func allPathSets(t *testing.T, n *Network) map[pathKey][]Path {
	t.Helper()
	want := make(map[pathKey][]Path)
	for s := 0; s < n.NumDCs(); s++ {
		for d := 0; d < n.NumDCs(); d++ {
			if s == d {
				continue
			}
			for k := 1; k <= 5; k++ {
				want[pathKey{s, d, k}] = freshPaths(t, n, s, d, k)
			}
		}
	}
	return want
}

// TestPathsMemoMatchesFreshEnumeration: a memoized path set is exactly
// what Yen's algorithm enumerates, on first use and on every reuse, and
// each (src, dst, k) is enumerated once per network.
func TestPathsMemoMatchesFreshEnumeration(t *testing.T) {
	for _, n := range []*Network{B4(), SubB4()} {
		t.Run(n.Name(), func(t *testing.T) {
			want := allPathSets(t, n)
			before := cPathsEnumerated.Value()
			checkMemoPaths(t, n, want) // fills the memo
			checkMemoPaths(t, n, want) // reads it back
			if got := cPathsEnumerated.Value() - before; got != int64(len(want)) {
				t.Fatalf("%d enumerations for %d path sets", got, len(want))
			}
			a, _ := n.Paths(0, 1, 3)
			b, _ := n.Paths(0, 1, 3)
			if &a[0] != &b[0] {
				t.Fatal("repeated Paths call did not share the memoized set")
			}
		})
	}
}

// TestPathsMemoConcurrent: 8 goroutines filling and reading one
// network's memo in different orders all see the fresh enumeration
// (run under -race to check the memo's locking).
func TestPathsMemoConcurrent(t *testing.T) {
	for _, n := range []*Network{B4(), SubB4()} {
		t.Run(n.Name(), func(t *testing.T) {
			want := allPathSets(t, n)
			before := cPathsEnumerated.Value()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2; i++ {
						checkMemoPaths(t, n, want)
					}
				}()
			}
			wg.Wait()
			if got := cPathsEnumerated.Value() - before; got != int64(len(want)) {
				t.Fatalf("%d enumerations for %d path sets", got, len(want))
			}
		})
	}
}
