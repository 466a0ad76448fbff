// Package seqset stores a set of uint64 as merged intervals — the paper's
// storage optimisation for received sequence numbers (§5.1 "maintaining
// intervals of successive sequence numbers instead of individual numbers").
// Both ends of the protocol keep one: the client over response sequence
// numbers (a repeat is rollback evidence) and the portal over each
// client's served query ids (a repeat is a replay). Numbers that arrive
// consecutively, in any order, cost one interval however many there are.
package seqset

import (
	"sort"
	"sync"
)

// Set is an interval set. The zero value is empty. Safe for concurrent use.
type Set struct {
	mu        sync.Mutex
	intervals [][2]uint64 // sorted, disjoint, non-adjacent [lo, hi]
}

// Add inserts v. When v is already present nothing changes and Add returns
// the interval that holds it with added false.
func (s *Set) Add(v uint64) (lo, hi uint64, added bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.intervals), func(i int) bool { return s.intervals[i][1] >= v })
	if i < len(s.intervals) && s.intervals[i][0] <= v {
		return s.intervals[i][0], s.intervals[i][1], false
	}
	// Merge with neighbours where adjacent.
	mergeLeft := i > 0 && s.intervals[i-1][1]+1 == v
	mergeRight := i < len(s.intervals) && s.intervals[i][0] == v+1
	switch {
	case mergeLeft && mergeRight:
		s.intervals[i-1][1] = s.intervals[i][1]
		s.intervals = append(s.intervals[:i], s.intervals[i+1:]...)
	case mergeLeft:
		s.intervals[i-1][1] = v
	case mergeRight:
		s.intervals[i][0] = v
	default:
		s.intervals = append(s.intervals, [2]uint64{})
		copy(s.intervals[i+1:], s.intervals[i:])
		s.intervals[i] = [2]uint64{v, v}
	}
	return v, v, true
}

// Len returns the number of stored intervals (the storage cost).
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.intervals)
}

// Max returns the largest member (0 if the set is empty) — for received
// sequence numbers, the floor a recovered portal must resume above.
func (s *Set) Max() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.intervals) == 0 {
		return 0
	}
	return s.intervals[len(s.intervals)-1][1]
}

// Intervals returns a copy of the interval list.
func (s *Set) Intervals() [][2]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][2]uint64(nil), s.intervals...)
}
