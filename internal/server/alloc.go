package server

import (
	"slices"
	"sort"
)

// unitsPerFragment is how many allocation units one full-size fragment
// spans. The data region is an array of units, and a fragment takes a
// contiguous run of just the units it fills (DESIGN.md §3.10).
const unitsPerFragment = 16

// UnitSize is the store's allocation unit for fragments of fragSize
// bytes: FragmentSize/16, rounded up so that 16 units hold a full
// fragment.
func UnitSize(fragSize int) int {
	return (fragSize + unitsPerFragment - 1) / unitsPerFragment
}

// extent is a run of n units starting at unit start.
type extent struct{ start, n int }

// freeRuns is the store's free-unit set: maximal runs of free units,
// sorted by start, never adjacent (free merges neighbours).
type freeRuns []extent

// alloc takes n contiguous units from the lowest-addressed run that
// holds them, reporting false if no run does.
func (f *freeRuns) alloc(n int) (int, bool) {
	for i, r := range *f {
		if r.n < n {
			continue
		}
		if r.n == n {
			*f = slices.Delete(*f, i, i+1)
		} else {
			(*f)[i] = extent{r.start + n, r.n - n}
		}
		return r.start, true
	}
	return 0, false
}

// free returns the n units at start to the set, merging them with the
// runs on either side.
func (f *freeRuns) free(start, n int) {
	if n <= 0 {
		return
	}
	runs := *f
	i := sort.Search(len(runs), func(i int) bool { return runs[i].start > start })
	prev := i > 0 && runs[i-1].start+runs[i-1].n == start
	next := i < len(runs) && start+n == runs[i].start
	switch {
	case prev && next:
		runs[i-1].n += n + runs[i].n
		runs = slices.Delete(runs, i, i+1)
	case prev:
		runs[i-1].n += n
	case next:
		runs[i] = extent{start, n + runs[i].n}
	default:
		runs = slices.Insert(runs, i, extent{start, n})
	}
	*f = runs
}

// units is the total number of free units.
func (f freeRuns) units() int {
	n := 0
	for _, r := range f {
		n += r.n
	}
	return n
}

// fullSlots is how many full-size fragments fit in the free set right
// now: a full-size Store succeeds exactly when it is at least one.
func (f freeRuns) fullSlots() int {
	n := 0
	for _, r := range f {
		n += r.n / unitsPerFragment
	}
	return n
}
