package seqset

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// run returns the maximal run of consecutive members of model holding v.
func run(model map[uint64]bool, v uint64) (lo, hi uint64) {
	lo, hi = v, v
	for lo > 0 && model[lo-1] {
		lo--
	}
	for hi < math.MaxUint64 && model[hi+1] {
		hi++
	}
	return lo, hi
}

// checkAgainst compares s with the model: Len is the number of maximal
// runs, Max the largest member, and Intervals exactly those runs, sorted,
// disjoint and non-adjacent.
func checkAgainst(t *testing.T, s *Set, model map[uint64]bool) {
	t.Helper()
	members := make([]uint64, 0, len(model))
	for v := range model {
		members = append(members, v)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	var want [][2]uint64
	for _, v := range members {
		if n := len(want); n > 0 && want[n-1][1]+1 == v {
			want[n-1][1] = v
			continue
		}
		want = append(want, [2]uint64{v, v})
	}

	got := s.Intervals()
	for i, iv := range got {
		if iv[0] > iv[1] {
			t.Fatalf("interval %d %v is inverted", i, iv)
		}
		if i > 0 && (got[i-1][1] >= iv[0] || iv[0]-got[i-1][1] < 2) {
			t.Fatalf("intervals %v and %v overlap or touch", got[i-1], iv)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("intervals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d is %v, want %v", i, got[i], want[i])
		}
	}
	if s.Len() != len(want) {
		t.Fatalf("Len %d, want %d", s.Len(), len(want))
	}
	wantMax := uint64(0)
	if len(members) > 0 {
		wantMax = members[len(members)-1]
	}
	if s.Max() != wantMax {
		t.Fatalf("Max %d, want %d", s.Max(), wantMax)
	}
}

// TestAddMatchesModel adds seeded random values in random order — small
// numbers, 0, math.MaxUint64 and the values beside them, and clusters in
// the middle of the range — to a Set and to a map, and checks after every
// Add that the added flag, the interval a repeat returns, Len, Max and the
// interval list agree with the map.
func TestAddMatchesModel(t *testing.T) {
	const mid = uint64(1) << 63
	var pool []uint64
	for d := uint64(0); d < 24; d++ {
		pool = append(pool, d, math.MaxUint64-d, mid-12+d)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		model := map[uint64]bool{}
		checkAgainst(t, &s, model)
		for i := 0; i < 4*len(pool); i++ {
			v := pool[rng.Intn(len(pool))]
			lo, hi, added := s.Add(v)
			if added == model[v] {
				t.Fatalf("seed %d: Add(%d) added=%v with the value present=%v", seed, v, added, model[v])
			}
			if added {
				model[v] = true
				if lo != v || hi != v {
					t.Fatalf("seed %d: Add(%d) returned [%d, %d] on a first add", seed, v, lo, hi)
				}
			} else if wlo, whi := run(model, v); lo != wlo || hi != whi {
				t.Fatalf("seed %d: repeat Add(%d) returned [%d, %d], want [%d, %d]", seed, v, lo, hi, wlo, whi)
			}
			checkAgainst(t, &s, model)
		}
	}
}

// TestConsecutiveValuesInAnyOrderAreOneInterval: the property the portal's
// replay set relies on — a run of consecutive values added in any order
// ends as one interval.
func TestConsecutiveValuesInAnyOrderAreOneInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Set
	for _, v := range rng.Perm(1000) {
		s.Add(uint64(v) + 1)
	}
	if got := s.Intervals(); len(got) != 1 || got[0] != [2]uint64{1, 1000} {
		t.Fatalf("intervals %v, want [[1 1000]]", got)
	}
}
