package addrspace

import (
	"slices"
	"sort"
)

// run is a maximal range [lo, hi] of free addresses.
type run struct{ lo, hi Addr }

// freeIndex is a table's free addresses as sorted, disjoint runs with at
// least one non-free address between neighbours. It is a derived view of
// the entries — a is in a run exactly when Get(a).Status == Free — never
// replicated or serialized.
//
// Runs rather than a low-water hint or a bitmap: a hint makes pure fill
// O(1) but re-walks the occupied prefix after every freed-and-retaken low
// address, so lookups still grow with occupancy under churn; a bitmap costs
// block-size/8 bytes per table and per Clone, 2 MB for a /8, where a fresh
// table here is one run. Every operation costs a binary search over the
// runs plus, when a run appears or disappears, moving the runs behind it —
// a function of how fragmented the free space is, not of how much is taken.
type freeIndex []run

// find returns the position of the first run ending at or after a, and
// whether that run contains a (that is, whether a is free).
func (f freeIndex) find(a Addr) (int, bool) {
	i := sort.Search(len(f), func(i int) bool { return f[i].hi >= a })
	return i, i < len(f) && f[i].lo <= a
}

// take removes a from run i, which must contain it.
func (f *freeIndex) take(i int, a Addr) {
	s := *f
	switch r := s[i]; {
	case r.lo == r.hi:
		*f = slices.Delete(s, i, i+1)
	case a == r.lo:
		s[i].lo++
	case a == r.hi:
		s[i].hi--
	default:
		s[i].hi = a - 1
		*f = slices.Insert(s, i+1, run{a + 1, r.hi})
	}
}

// release adds a, which must not be free; i is its position from find, so
// run i-1 ends below a and run i starts above it.
func (f *freeIndex) release(i int, a Addr) {
	s := *f
	joinsPrev := i > 0 && s[i-1].hi+1 == a
	joinsNext := i < len(s) && a+1 == s[i].lo
	switch {
	case joinsPrev && joinsNext:
		s[i-1].hi = s[i].hi
		*f = slices.Delete(s, i, i+1)
	case joinsPrev:
		s[i-1].hi = a
	case joinsNext:
		s[i].lo = a
	default:
		*f = slices.Insert(s, i, run{a, a})
	}
}

// split divides the index at mid: the runs below it and the runs from it
// upwards, cutting a run that straddles the boundary. The halves share no
// storage with each other.
func (f freeIndex) split(mid Addr) (lower, upper freeIndex) {
	i, straddles := f.find(mid)
	lower = append(lower, f[:i]...)
	upper = append(upper, f[i:]...)
	if straddles && f[i].lo < mid {
		lower = append(lower, run{f[i].lo, mid - 1})
		upper[0].lo = mid
	}
	return lower, upper
}

// join returns a fresh index of f followed by the index of the block
// immediately above it; free runs touching the seam from both sides merge
// into one.
func (f freeIndex) join(above freeIndex) freeIndex {
	out := make(freeIndex, 0, len(f)+len(above))
	out = append(out, f...)
	if n := len(out); n > 0 && len(above) > 0 && out[n-1].hi+1 == above[0].lo {
		out[n-1].hi = above[0].hi
		above = above[1:]
	}
	return append(out, above...)
}
