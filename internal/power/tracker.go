package power

import (
	"math/bits"

	"repro/internal/model"
	"repro/internal/schedule"
)

// Tracker maintains the power profile of a schedule incrementally: when
// one task moves, only the four affected breakpoints (old start/end, new
// start/end) are updated instead of rebuilding the whole profile with
// Build. This is the scheduler's hottest data structure — spike fixing,
// gap filling, and compaction all probe the profile after every
// candidate move.
//
// The tracker is bit-exact with Build: Profile returns segments whose
// power values are produced by the same floating-point operations in
// the same order Build performs them (base load first, then task
// contributions in task-index order, per-breakpoint sums rounded before
// the running prefix sum). Heuristics that compare profile values
// against thresholds therefore make identical decisions on the
// incremental and the from-scratch path.
//
// The tracker keeps a committed profile — the last materialization,
// with its peak, floor, segment index and free energy — apart from the
// live breakpoints that Move edits. Moves since the commit are pending;
// moving every pending task back to its committed start makes the
// tracker clean again without rematerializing. Accepts decides the
// min-power acceptance test on the pending state from the committed
// profile plus a sweep over the moved window (see probe.go).
//
// The live breakpoints are pointer-free banks. Each task contributes
// two fixed nodes, id 2v (+Power at its start) and 2v+1 (-Power at its
// end). A breakpoint lists its contributor nodes in ascending id — the
// order Build accumulates them — and caches their sum, so a sweep adds
// one delta per breakpoint. Breakpoints are found through a slot
// directory: slot t>>shift heads a time-ordered chain of the
// breakpoints in that slot, and a bitmap of non-empty slots lets a
// sweep skip empty ones. The directory has 2·max(n,1) slots; Reset
// widens slots until the finish time falls in the first half, and a
// move past the directory's horizon widens them again, so there are
// O(n) slots and a chain holds O(1) breakpoints when breakpoints are
// spread over the horizon.
type Tracker struct {
	tasks []model.Task
	base  float64
	start []model.Time
	// delays mirrors the Delay fields of tasks and nodeP holds each
	// contribution node's signed power, both refreshed on Reset (a
	// heterogeneous scheduler rewrites the task view between restarts).
	// The hot loops read these dense entries instead of copying ~88-byte
	// model.Task values.
	delays []model.Time
	nodeP  []float64
	// nodeNext links a node to the next (higher-id) contributor of its
	// breakpoint, -1 at the end; nodeBp is the node's breakpoint.
	nodeNext []int32
	nodeBp   []int32

	// bp is the breakpoint pool (at most one live breakpoint per node)
	// and free the stack of unused entries; nbp counts the live ones.
	bp   []breakpoint
	free []int32
	nbp  int
	// slot heads each slot's chain of breakpoints (ascending time, -1
	// when empty); occ has bit b set iff slot b is non-empty. lastT is
	// the largest live breakpoint time: the live finish time.
	shift uint
	slot  []int32
	occ   []uint64
	lastT model.Time

	// cm is the committed profile and cstart the starts it was
	// materialized at; stale means no committed profile describes the
	// current task set (after Reset). idx is the hierarchical
	// spike/gap index over cm's segments, rebuilt lazily on the first
	// query after each commit (see index.go).
	cm     snapshot
	cstart []model.Time
	stale  bool
	idx    segIndex
	idxOK  bool
	// pend counts the tasks whose live start differs from cstart, and
	// [winLo, winHi] covers every breakpoint a pending move touched:
	// live breakpoints outside it equal the committed ones.
	pend         int
	winLo, winHi model.Time
	// sp is an exact materialization of the live state made by a probe
	// that could not be decided from the estimate; the next Profile
	// call promotes it instead of materializing again. spOK is cleared
	// by every Move and Reset.
	sp   snapshot
	spOK bool

	counts TrackerCounts
}

// snapshot is one materialized profile with the aggregates read
// without a segment walk: its exact peak and floor (maintained during
// the sweep) and, once asked for, its exact free energy at one pmin.
type snapshot struct {
	prof            Profile
	maxP, minP      float64
	freeE, freePmin float64
	freeOK          bool
}

// TrackerCounts are a tracker's lifetime work counters, for tests and
// diagnostics.
type TrackerCounts struct {
	Materializations int // full breakpoint sweeps into segments
	Probes           int // Accepts calls
	Fallbacks        int // Accepts calls decided on an exact materialization
}

// breakpoint is one live breakpoint time. delta is Build's sum for it:
// fl(base + Σ p) at time 0, fl(Σ p) elsewhere, adding the contributor
// nodes from head in ascending id.
type breakpoint struct {
	t     model.Time
	delta float64
	head  int32 // first contributor node
	next  int32 // next breakpoint in the same slot, -1 at the end
}

// NewTracker builds a tracker for the given tasks positioned at s.
func NewTracker(tasks []model.Task, s schedule.Schedule, base float64) *Tracker {
	n := len(tasks)
	times := make([]model.Time, 3*n)
	slots := 2 * max(n, 1)
	links := make([]int32, 6*n+slots)
	tr := &Tracker{
		tasks:    tasks,
		base:     base,
		start:    times[:n:n],
		cstart:   times[n : 2*n : 2*n],
		delays:   times[2*n:],
		nodeP:    make([]float64, 2*n),
		nodeNext: links[: 2*n : 2*n],
		nodeBp:   links[2*n : 4*n : 4*n],
		free:     links[4*n : 6*n : 6*n],
		slot:     links[6*n:],
		bp:       make([]breakpoint, 2*n),
		occ:      make([]uint64, (slots+63)/64),
	}
	tr.Reset(s)
	return tr
}

// Reset repositions every task at the starts of s, discarding all
// incremental state (used at stage boundaries, where the working
// schedule is re-derived wholesale). The flat delay/power banks are
// refreshed here too: a heterogeneous scheduler rewrites the task
// view's effective delays and powers between restarts.
func (tr *Tracker) Reset(s schedule.Schedule) {
	copy(tr.start, s.Start)
	tau := model.Time(0)
	for v := range tr.tasks {
		d, p := tr.tasks[v].Delay, tr.tasks[v].Power
		tr.delays[v] = d
		tr.nodeP[2*v], tr.nodeP[2*v+1] = p, -p
		tau = max(tau, tr.start[v]+d)
	}
	// Slot width: the smallest power of two leaving the finish time in
	// the directory's first half, so moves have room to grow it.
	tr.shift = 0
	for tau>>tr.shift >= len(tr.slot)/2 {
		tr.shift++
	}
	for i := range tr.slot {
		tr.slot[i] = -1
	}
	clear(tr.occ)
	// Pop order hands out breakpoints 0, 1, 2, ...: after the inserts
	// below the live ones are exactly bp[:nbp].
	tr.free = tr.free[:cap(tr.free)]
	for i := range tr.free {
		tr.free[i] = int32(len(tr.free) - 1 - i)
	}
	tr.nbp, tr.lastT = 0, 0
	// Inserting in descending id order makes every insert a push onto
	// the breakpoint's list head; the deltas are summed once at the end.
	for id := len(tr.nodeP) - 1; id >= 0; id-- {
		b := tr.breakpointAt(tr.nodeTime(int32(id)))
		tr.nodeNext[id], tr.bp[b].head = tr.bp[b].head, int32(id)
		tr.nodeBp[id] = b
	}
	for b := range tr.nbp {
		tr.redelta(int32(b))
	}
	tr.stale = true
	tr.pend = 0
	tr.spOK = false
}

// Move repositions task v to start at s, updating the affected
// breakpoints: each of the four is found through its slot in O(1) for
// breakpoints spread over the horizon, and edited in O(contributors).
// Moving the last pending task back to its committed start leaves the
// tracker clean: the committed profile is current again.
func (tr *Tracker) Move(v int, s model.Time) {
	old := tr.start[v]
	if s == old {
		return
	}
	d := tr.delays[v]
	id := int32(2 * v)
	tr.remove(id)
	tr.remove(id + 1)
	tr.start[v] = s
	tr.add(id, s)
	tr.add(id+1, s+d)
	tr.spOK = false
	if tr.stale {
		return
	}
	lo, hi := min(old, s, old+d, s+d), max(old, s, old+d, s+d)
	if tr.pend == 0 {
		tr.winLo, tr.winHi = lo, hi
	} else {
		tr.winLo, tr.winHi = min(tr.winLo, lo), max(tr.winHi, hi)
	}
	if c := tr.cstart[v]; old == c {
		tr.pend++
	} else if s == c {
		tr.pend--
	}
}

// Start returns the tracked start time of task v.
func (tr *Tracker) Start(v int) model.Time { return tr.start[v] }

// Profile returns the current power profile, committing the live state:
// it materializes the breakpoints (or promotes a probe's exact
// materialization of the same state) unless the tracker is clean.
// Callers must not retain the result across mutations (its segment
// slice is reused).
func (tr *Tracker) Profile() Profile {
	if tr.clean() {
		return tr.cm.prof
	}
	if tr.spOK {
		tr.cm, tr.sp = tr.sp, tr.cm
		tr.spOK = false
	} else {
		tr.materialize(&tr.cm)
	}
	copy(tr.cstart, tr.start)
	tr.stale = false
	tr.pend = 0
	tr.idxOK = false
	return tr.cm.prof
}

// clean reports whether the committed profile describes the live state.
func (tr *Tracker) clean() bool { return !tr.stale && tr.pend == 0 }

// Counts returns the tracker's lifetime work counters.
func (tr *Tracker) Counts() TrackerCounts { return tr.counts }

// nodeTime returns the time node id sits at: its task's start or end.
func (tr *Tracker) nodeTime(id int32) model.Time {
	v := id >> 1
	return tr.start[v] + model.Time(id&1)*tr.delays[v]
}

// breakpointAt returns the live breakpoint at time t, creating an
// empty one (and widening the slots first when t lies past the
// directory's horizon) if there is none.
func (tr *Tracker) breakpointAt(t model.Time) int32 {
	if t < 0 {
		panic("power: tracker breakpoint at negative time")
	}
	for t>>tr.shift >= model.Time(len(tr.slot)) {
		tr.widen()
	}
	s := t >> tr.shift
	prev, b := int32(-1), tr.slot[s]
	for b >= 0 && tr.bp[b].t < t {
		prev, b = b, tr.bp[b].next
	}
	if b >= 0 && tr.bp[b].t == t {
		return b
	}
	k := len(tr.free) - 1
	nb := tr.free[k]
	tr.free = tr.free[:k]
	tr.bp[nb] = breakpoint{t: t, head: -1, next: b}
	if prev < 0 {
		tr.slot[s] = nb
		tr.occ[s>>6] |= 1 << (s & 63)
	} else {
		tr.bp[prev].next = nb
	}
	tr.nbp++
	tr.lastT = max(tr.lastT, t)
	return nb
}

// add places node id at time t, keeping its breakpoint's contributors
// in ascending id, and re-sums that breakpoint's delta.
func (tr *Tracker) add(id int32, t model.Time) {
	b := tr.breakpointAt(t)
	tr.nodeBp[id] = b
	h := tr.bp[b].head
	if h < 0 || h > id {
		tr.nodeNext[id], tr.bp[b].head = h, id
	} else {
		q := h
		for tr.nodeNext[q] >= 0 && tr.nodeNext[q] < id {
			q = tr.nodeNext[q]
		}
		tr.nodeNext[id], tr.nodeNext[q] = tr.nodeNext[q], id
	}
	tr.redelta(b)
}

// remove takes node id off its breakpoint. A breakpoint left without
// contributors is deleted, matching Build, which only has breakpoints
// at times some task currently touches.
func (tr *Tracker) remove(id int32) {
	b := tr.nodeBp[id]
	p := &tr.bp[b]
	if p.head == id {
		p.head = tr.nodeNext[id]
	} else {
		q := p.head
		for tr.nodeNext[q] != id {
			q = tr.nodeNext[q]
		}
		tr.nodeNext[q] = tr.nodeNext[id]
	}
	if p.head >= 0 {
		tr.redelta(b)
		return
	}
	t := p.t
	s := t >> tr.shift
	if q := tr.slot[s]; q == b {
		tr.slot[s] = p.next
		if p.next < 0 {
			tr.occ[s>>6] &^= 1 << (s & 63)
		}
	} else {
		for tr.bp[q].next != b {
			q = tr.bp[q].next
		}
		tr.bp[q].next = p.next
	}
	tr.free = append(tr.free, b)
	tr.nbp--
	if t == tr.lastT {
		tr.lastT = 0
		if s = tr.prevSlot(s); s >= 0 {
			q := tr.slot[s]
			for tr.bp[q].next >= 0 {
				q = tr.bp[q].next
			}
			tr.lastT = tr.bp[q].t
		}
	}
}

// redelta re-sums breakpoint b's delta the way Build does: base first
// at time 0, then the contributors in ascending id.
func (tr *Tracker) redelta(b int32) {
	var d float64
	if tr.bp[b].t == 0 {
		d = tr.base
	}
	for q := tr.bp[b].head; q >= 0; q = tr.nodeNext[q] {
		d += tr.nodeP[q]
	}
	tr.bp[b].delta = d
}

// widen doubles the slot width, concatenating each pair of adjacent
// chains (every time in slot 2k precedes every time in slot 2k+1).
func (tr *Tracker) widen() {
	n := len(tr.slot)
	for k := 0; k < n/2; k++ {
		a, c := tr.slot[2*k], tr.slot[2*k+1]
		if a < 0 {
			a = c
		} else if c >= 0 {
			q := a
			for tr.bp[q].next >= 0 {
				q = tr.bp[q].next
			}
			tr.bp[q].next = c
		}
		tr.slot[k] = a
	}
	for k := n / 2; k < n; k++ {
		tr.slot[k] = -1
	}
	clear(tr.occ)
	for k, h := range tr.slot[:n/2] {
		if h >= 0 {
			tr.occ[k>>6] |= 1 << (k & 63)
		}
	}
	tr.shift++
}

// nextSlot returns the first non-empty slot >= s, or -1.
func (tr *Tracker) nextSlot(s int) int {
	w := s >> 6
	if w >= len(tr.occ) {
		return -1
	}
	if x := tr.occ[w] >> (s & 63); x != 0 {
		return s + bits.TrailingZeros64(x)
	}
	for w++; w < len(tr.occ); w++ {
		if x := tr.occ[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// prevSlot returns the last non-empty slot <= s, or -1.
func (tr *Tracker) prevSlot(s int) int {
	w := s >> 6
	if x := tr.occ[w] << (63 - s&63); x != 0 {
		return s - bits.LeadingZeros64(x)
	}
	for w--; w >= 0; w-- {
		if x := tr.occ[w]; x != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(x)
		}
	}
	return -1
}

// hasZero reports whether a live breakpoint sits at time 0 (the first
// one in slot 0, when there is one).
func (tr *Tracker) hasZero() bool {
	b := tr.slot[0]
	return b >= 0 && tr.bp[b].t == 0
}

// tau returns the live finish time. It is the largest breakpoint:
// every task's end is a breakpoint at start+delay, and any breakpoint is
// a start or end bounded by some end, so max(breakpoint) ==
// max(start+delay).
func (tr *Tracker) tau() model.Time { return tr.lastT }

// materialize sweeps the breakpoints into merged segments exactly the
// way Build does: each breakpoint's cached delta is added to the
// running power, the prefix sum, and adjacent equal-power segments
// merge. The result replaces out, reusing its segment slice.
func (tr *Tracker) materialize(out *snapshot) {
	tr.counts.Materializations++
	segs := out.prof.Segs[:0]
	out.freeOK = false
	maxP, minP := negInf, posInf
	tau := tr.tau()
	if tau == 0 {
		out.prof, out.maxP, out.minP = Profile{}, maxP, minP
		return
	}
	// emit closes the segment [prevT, t1) at the running power cur.
	// Breakpoint times strictly increase, so the segments are contiguous.
	var cur float64
	prevT := model.Time(0)
	emit := func(t1 model.Time) {
		if cur > maxP {
			maxP = cur
		}
		if cur < minP {
			minP = cur
		}
		if n := len(segs); n > 0 && segs[n-1].P == cur {
			segs[n-1].T1 = t1
		} else {
			segs = append(segs, Segment{T0: prevT, T1: t1, P: cur})
		}
	}
	// Build always has a breakpoint at 0 (the base load starts there),
	// even when no task does. Build's final breakpoint is tau (where the
	// base load ends); its delta is never added to the running power, it
	// only terminates the last segment.
	if !tr.hasZero() {
		cur += tr.base
	}
	for s := tr.nextSlot(0); s >= 0; s = tr.nextSlot(s + 1) {
		for b := tr.slot[s]; b >= 0; b = tr.bp[b].next {
			t := tr.bp[b].t
			if t >= tau {
				break
			}
			if t > 0 {
				emit(t)
				prevT = t
			}
			cur += tr.bp[b].delta
		}
	}
	emit(tau)
	out.prof, out.maxP, out.minP = Profile{Segs: segs}, maxP, minP
}
