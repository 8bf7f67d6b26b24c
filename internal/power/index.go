package power

import (
	"math"
	"sort"

	"repro/internal/model"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// segIndex is a hierarchical max/min index over a materialized
// profile's segments: a power-of-two-padded implicit segment tree whose
// node aggregates answer "first segment at or after i whose power
// crosses a threshold" in O(log m) instead of the linear segment walk
// the heuristics previously performed per query. All comparisons are
// exact float comparisons against the same segment powers the linear
// walk reads, so every answer is bitwise-identical to the walk's.
//
// The tree is rebuilt from the segment slice in O(m); the tracker does
// so lazily on the first query after each materialization, and the node
// banks are reused across rebuilds. The same pass records the running
// maxima from either end, which answer a probe's prefix and suffix
// peaks in O(1).
type segIndex struct {
	m    int       // live leaf count (number of segments)
	size int       // padded leaf count: smallest power of two >= m
	max  []float64 // 2*size nodes, 1-based; leaf i lives at size+i
	min  []float64
	pre  []float64 // pre[i]: largest power among segments [0, i]
	suf  []float64 // suf[i]: largest power among segments [i, m)
}

func (ix *segIndex) build(segs []Segment) {
	ix.m = len(segs)
	if cap(ix.pre) < ix.m {
		ix.pre = make([]float64, ix.m)
		ix.suf = make([]float64, ix.m)
	}
	ix.pre, ix.suf = ix.pre[:ix.m], ix.suf[:ix.m]
	hi := negInf
	for i, sg := range segs {
		if sg.P > hi {
			hi = sg.P
		}
		ix.pre[i] = hi
	}
	hi = negInf
	for i := ix.m - 1; i >= 0; i-- {
		if segs[i].P > hi {
			hi = segs[i].P
		}
		ix.suf[i] = hi
	}
	size := 1
	for size < ix.m {
		size *= 2
	}
	ix.size = size
	if cap(ix.max) < 2*size {
		ix.max = make([]float64, 2*size)
		ix.min = make([]float64, 2*size)
	}
	ix.max = ix.max[:2*size]
	ix.min = ix.min[:2*size]
	for i := 0; i < size; i++ {
		if i < ix.m {
			ix.max[size+i] = segs[i].P
			ix.min[size+i] = segs[i].P
		} else {
			ix.max[size+i] = negInf
			ix.min[size+i] = posInf
		}
	}
	for i := size - 1; i >= 1; i-- {
		l, r := ix.max[2*i], ix.max[2*i+1]
		if l >= r {
			ix.max[i] = l
		} else {
			ix.max[i] = r
		}
		l, r = ix.min[2*i], ix.min[2*i+1]
		if l <= r {
			ix.min[i] = l
		} else {
			ix.min[i] = r
		}
	}
}

// descendMax and friends walk from a tree node known to contain a
// qualifying leaf down to its leftmost qualifying leaf, steering by the
// node aggregates (one comparison per level).
func (ix *segIndex) descendMax(v int, above float64) int {
	for v < ix.size {
		if ix.max[2*v] > above {
			v = 2 * v
		} else {
			v = 2*v + 1
		}
	}
	return v - ix.size
}

func (ix *segIndex) descendMaxAtOr(v int, above float64) int {
	for v < ix.size {
		if ix.max[2*v] >= above {
			v = 2 * v
		} else {
			v = 2*v + 1
		}
	}
	return v - ix.size
}

func (ix *segIndex) descendMinAtOr(v int, below float64) int {
	for v < ix.size {
		if ix.min[2*v] <= below {
			v = 2 * v
		} else {
			v = 2*v + 1
		}
	}
	return v - ix.size
}

// firstAbove returns the smallest segment index >= from whose power is
// strictly greater than x, or -1 when no such segment exists.
func (ix *segIndex) firstAbove(from int, x float64) int {
	if from < 0 {
		from = 0
	}
	if from >= ix.m {
		return -1
	}
	// Climb from the leaf, checking right siblings' subtrees.
	v := ix.size + from
	if ix.max[v] > x {
		return from
	}
	for v > 1 {
		if v%2 == 0 && ix.max[v+1] > x {
			return ix.descendMax(v+1, x)
		}
		v /= 2
	}
	return -1
}

// firstAtOrAbove is firstAbove with a >= threshold (power >= x).
func (ix *segIndex) firstAtOrAbove(from int, x float64) int {
	if from < 0 {
		from = 0
	}
	if from >= ix.m {
		return -1
	}
	v := ix.size + from
	if ix.max[v] >= x {
		return from
	}
	for v > 1 {
		if v%2 == 0 && ix.max[v+1] >= x {
			return ix.descendMaxAtOr(v+1, x)
		}
		v /= 2
	}
	return -1
}

// firstAtOrBelow returns the smallest segment index >= from whose power
// is at most x, or -1.
func (ix *segIndex) firstAtOrBelow(from int, x float64) int {
	if from < 0 {
		from = 0
	}
	if from >= ix.m {
		return -1
	}
	v := ix.size + from
	if ix.min[v] <= x {
		return from
	}
	for v > 1 {
		if v%2 == 0 && ix.min[v+1] <= x {
			return ix.descendMinAtOr(v+1, x)
		}
		v /= 2
	}
	return -1
}

// ensureIndex commits the live state if needed and builds the segment
// index for the committed profile.
func (tr *Tracker) ensureIndex() {
	tr.Profile()
	tr.buildIndex()
}

// buildIndex builds the segment index over the committed profile
// unless it is current. It never materializes: a probe reads the
// committed index while moves are pending.
func (tr *Tracker) buildIndex() {
	if !tr.idxOK {
		tr.idx.build(tr.cm.prof.Segs)
		tr.idxOK = true
	}
}

// segAt returns the index of the committed segment containing t, or
// -1 when t falls outside [0, tau).
func (tr *Tracker) segAt(t model.Time) int {
	segs := tr.cm.prof.Segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].T1 > t })
	if i < len(segs) && segs[i].T0 <= t {
		return i
	}
	return -1
}

// ValidMax reports whether the tracked profile respects the max power
// budget. Identical to Profile().Valid(pmax) — a profile is invalid iff
// its exact peak exceeds pmax — but O(1) after materialization: the
// peak is maintained during the segment sweep.
func (tr *Tracker) ValidMax(pmax float64) bool {
	tr.Profile()
	return !(tr.cm.maxP > pmax)
}

// FirstAbove returns the start of the earliest profile segment whose
// power strictly exceeds pmax (the first spike's start), or false when
// the profile never exceeds pmax. Identical to scanning Profile().Segs
// for the first P > pmax, in O(log m) via the segment index.
func (tr *Tracker) FirstAbove(pmax float64) (model.Time, bool) {
	tr.Profile()
	if !(tr.cm.maxP > pmax) {
		return 0, false
	}
	tr.ensureIndex()
	i := tr.idx.firstAbove(0, pmax)
	if i < 0 {
		return 0, false
	}
	return tr.cm.prof.Segs[i].T0, true
}

// RunEndAbove returns the end of the maximal contiguous run of
// over-budget segments (P > pmax) containing time t, or t+1 when the
// profile at t does not exceed pmax. This is the spike-interval end
// query of the max-power stage: profile segments are contiguous, so a
// maximal over-budget run is exactly a maximal consecutive sequence of
// over-budget segments.
func (tr *Tracker) RunEndAbove(t model.Time, pmax float64) model.Time {
	tr.Profile()
	i := tr.segAt(t)
	if i < 0 || !(tr.cm.prof.Segs[i].P > pmax) {
		return t + 1
	}
	tr.ensureIndex()
	j := tr.idx.firstAtOrBelow(i+1, pmax)
	if j < 0 {
		j = len(tr.cm.prof.Segs)
	}
	return tr.cm.prof.Segs[j-1].T1
}

// RunEndBelow returns the end of the maximal contiguous run of
// below-pmin segments (P < pmin) containing time t, or t+1 when the
// profile at t is not below pmin. This is the gap-interval end query of
// the min-power stage.
func (tr *Tracker) RunEndBelow(t model.Time, pmin float64) model.Time {
	tr.Profile()
	i := tr.segAt(t)
	if i < 0 || !(tr.cm.prof.Segs[i].P < pmin) {
		return t + 1
	}
	tr.ensureIndex()
	j := tr.idx.firstAtOrAbove(i+1, pmin)
	if j < 0 {
		j = len(tr.cm.prof.Segs)
	}
	return tr.cm.prof.Segs[j-1].T1
}
