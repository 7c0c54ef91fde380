package sorted

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestTail checks Tail against a full sort for every split of random
// inputs into an ascending prefix and an arbitrary tail, including the
// empty prefix, the empty tail, a tail that extends the prefix, and a
// tail that lies wholly before it.
func TestTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		vals := make([]int, rng.Intn(40))
		for i := range vals {
			vals[i] = rng.Intn(30) // duplicates included
		}
		for n := 0; n <= len(vals); n++ {
			idx := slices.Clone(vals)
			slices.Sort(idx[:n])
			switch trial % 4 {
			case 1: // tail extends the prefix
				for i := n; i < len(idx); i++ {
					idx[i] += 100
				}
			case 2: // tail lies before the prefix
				for i := n; i < len(idx); i++ {
					idx[i] -= 100
				}
			}
			want := slices.Clone(idx)
			slices.Sort(want)
			Tail(idx, n, cmp.Compare[int])
			if !slices.Equal(idx, want) {
				t.Fatalf("trial %d, prefix %d: got %v, want %v", trial, n, idx, want)
			}
		}
	}
}

// TestAppendDoubles pins Append's growth: the values arrive in order and
// the capacity at least doubles whenever it runs out.
func TestAppendDoubles(t *testing.T) {
	var idx []int
	for i := 0; i < 5000; i++ {
		full, before := len(idx) == cap(idx), cap(idx)
		idx = Append(idx, i)
		if idx[i] != i || len(idx) != i+1 {
			t.Fatalf("append %d: got %d at length %d", i, idx[i], len(idx))
		}
		if full && cap(idx) < 2*before+1 {
			t.Fatalf("append %d: capacity grew from %d to %d, want at least doubled", i, before, cap(idx))
		}
	}
}
