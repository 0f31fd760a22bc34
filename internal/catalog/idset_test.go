package catalog

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestIDSetMatchesMap drives an IDSet and a map through the same random
// adds and removes, over id spaces small enough to go dense and large
// enough to stay sparse, and compares every query after every step.
func TestIDSetMatchesMap(t *testing.T) {
	for _, n := range []int{1, 40, 300, 70000} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var s IDSet
			m := map[int32]bool{}
			for step := 0; step < 3000; step++ {
				id := int32(rng.Intn(n))
				if rng.Intn(3) > 0 {
					if got, want := s.Add(id), !m[id]; got != want {
						t.Fatalf("n %d step %d: Add(%d) = %v, want %v", n, step, id, got, want)
					}
					m[id] = true
				} else {
					if got, want := s.Remove(id), m[id]; got != want {
						t.Fatalf("n %d step %d: Remove(%d) = %v, want %v", n, step, id, got, want)
					}
					delete(m, id)
				}
				if rng.Intn(500) == 0 {
					s.Clear()
					clear(m)
				}
				if s.Len() != len(m) {
					t.Fatalf("n %d step %d: Len %d, want %d", n, step, s.Len(), len(m))
				}
				probe := int32(rng.Intn(n))
				if s.Has(probe) != m[probe] || s.Has(id) != m[id] {
					t.Fatalf("n %d step %d: Has(%d) = %v, want %v", n, step, probe, s.Has(probe), m[probe])
				}
				if step%50 != 0 {
					continue
				}
				want := make([]int32, 0, len(m))
				for id := range m {
					want = append(want, id)
				}
				slices.Sort(want)
				if got := s.Append([]int32{}); !reflect.DeepEqual(got, want) {
					t.Fatalf("n %d step %d: members %v, want %v", n, step, got, want)
				}
			}
		}
	}
}

// heldBytes is the storage s holds beyond its own header.
func heldBytes(s *IDSet) int { return 4 * cap(s.s) }

// TestIDSetSize pins what the set is for: holding k of n ids costs about
// min(4k, n/8) bytes — a sorted slice while that is smaller, a bitset once
// the bitset is — within the factor two of a growing slice. A dense bitset
// for every set (n/8 bytes however few members) fails the small-k rows, the
// way it would raise the 65,536-worker cell's bytes per event.
func TestIDSetSize(t *testing.T) {
	for _, n := range []int{64, 1000, 7501, 65536} {
		for _, k := range []int{0, 1, 2, 3, 10, 100, 1000, 5000, 65536} {
			if k > n {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n + k)))
			perm := rng.Perm(n)[:k]
			for _, order := range []string{"random", "ascending", "descending"} {
				ids := slices.Clone(perm)
				switch order {
				case "ascending":
					slices.Sort(ids)
				case "descending":
					slices.Sort(ids)
					slices.Reverse(ids)
				}
				var s IDSet
				for _, id := range ids {
					s.Add(int32(id))
				}
				bitset := 4 * ((n + 31) / 32)
				if bound := 2 * min(4*k, bitset); heldBytes(&s) > bound {
					t.Errorf("%d of %d ids added in %s order cost %d bytes, want <= %d", k, n, order, heldBytes(&s), bound)
				}
				if k == 1 && heldBytes(&s) != 0 {
					t.Errorf("one id of %d costs %d bytes, want it inline", n, heldBytes(&s))
				}
			}
		}
	}
}
