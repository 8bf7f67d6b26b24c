package power

import (
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
type Tracker struct {
	tasks []model.Task
	base  float64
	start []model.Time
	// delays and powers are flat per-task banks mirroring the Delay and
	// Power fields of tasks, refreshed on Reset (a heterogeneous
	// scheduler rewrites the task view between restarts). The hot loops
	// — materialize's finish-time scan and Move's breakpoint updates —
	// read these dense 8-byte entries instead of copying ~88-byte
	// model.Task values (runtime.duffcopy on profiles).
	delays []model.Time
	powers []float64
	// buckets holds, per breakpoint time, the ordered task
	// contributions (base is handled virtually at 0 and tau, which
	// moves as the finish time changes). Sorted by time.
	buckets []bucket
	// free recycles the contribution slices of emptied buckets so that
	// steady-state Move/Reset churn allocates nothing once the slices
	// have grown to their working sizes.
	free [][]contrib

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
	// live buckets outside it equal the committed ones.
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

const (
	kindStart = 0 // +Power at the task's start time
	kindEnd   = 1 // -Power at the task's end time
)

type contrib struct {
	task int
	kind int
	p    float64 // signed contribution
}

type bucket struct {
	t  model.Time
	cs []contrib
}

// NewTracker builds a tracker for the given tasks positioned at s.
func NewTracker(tasks []model.Task, s schedule.Schedule, base float64) *Tracker {
	tr := &Tracker{
		tasks:  tasks,
		base:   base,
		start:  make([]model.Time, len(tasks)),
		cstart: make([]model.Time, len(tasks)),
		delays: make([]model.Time, len(tasks)),
		powers: make([]float64, len(tasks)),
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
	for i := range tr.buckets {
		tr.recycle(tr.buckets[i].cs)
		tr.buckets[i].cs = nil
	}
	tr.buckets = tr.buckets[:0]
	for v := range tr.tasks {
		tr.delays[v] = tr.tasks[v].Delay
		tr.powers[v] = tr.tasks[v].Power
	}
	for v := range tr.delays {
		tr.add(tr.start[v], v, kindStart, tr.powers[v])
		tr.add(tr.start[v]+tr.delays[v], v, kindEnd, -tr.powers[v])
	}
	tr.stale = true
	tr.pend = 0
	tr.spOK = false
}

// Move repositions task v to start at s, updating the affected
// breakpoints. Cost is O(log B) to locate each breakpoint plus the
// slice splice, independent of how the rest of the schedule looks.
// Moving the last pending task back to its committed start leaves the
// tracker clean: the committed profile is current again.
func (tr *Tracker) Move(v int, s model.Time) {
	old := tr.start[v]
	if s == old {
		return
	}
	d, p := tr.delays[v], tr.powers[v]
	tr.remove(old, v, kindStart)
	tr.remove(old+d, v, kindEnd)
	tr.start[v] = s
	tr.add(s, v, kindStart, p)
	tr.add(s+d, v, kindEnd, -p)
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

// bucketIdx returns the position of time t in the bucket list and
// whether a bucket at exactly t exists.
func (tr *Tracker) bucketIdx(t model.Time) (int, bool) {
	lo, hi := 0, len(tr.buckets)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.buckets[mid].t < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tr.buckets) && tr.buckets[lo].t == t
}

// add inserts the contribution of (task, kind) at time t, keeping the
// bucket's contributions ordered the way Build accumulates them: by
// task index, start before end.
func (tr *Tracker) add(t model.Time, task, kind int, p float64) {
	i, ok := tr.bucketIdx(t)
	if !ok {
		tr.buckets = append(tr.buckets, bucket{})
		copy(tr.buckets[i+1:], tr.buckets[i:])
		tr.buckets[i] = bucket{t: t, cs: tr.grab()}
	}
	b := &tr.buckets[i]
	j := len(b.cs)
	for j > 0 {
		c := b.cs[j-1]
		if c.task < task || (c.task == task && c.kind < kind) {
			break
		}
		j--
	}
	b.cs = append(b.cs, contrib{})
	copy(b.cs[j+1:], b.cs[j:])
	b.cs[j] = contrib{task: task, kind: kind, p: p}
}

// recycle returns a bucket's contribution slice to the freelist.
func (tr *Tracker) recycle(cs []contrib) {
	if cap(cs) > 0 {
		tr.free = append(tr.free, cs[:0])
	}
}

// grab pops a recycled contribution slice, or returns nil so the first
// append sizes a fresh one.
func (tr *Tracker) grab() []contrib {
	n := len(tr.free)
	if n == 0 {
		return nil
	}
	cs := tr.free[n-1]
	tr.free[n-1] = nil
	tr.free = tr.free[:n-1]
	return cs
}

// remove deletes the contribution of (task, kind) at time t. Buckets
// left without contributors are removed entirely, matching Build, which
// only creates breakpoints for times some task currently touches.
func (tr *Tracker) remove(t model.Time, task, kind int) {
	i, ok := tr.bucketIdx(t)
	if !ok {
		panic("power: tracker removal at unknown breakpoint")
	}
	b := &tr.buckets[i]
	for j, c := range b.cs {
		if c.task == task && c.kind == kind {
			b.cs = append(b.cs[:j], b.cs[j+1:]...)
			if len(b.cs) == 0 {
				tr.recycle(b.cs)
				tr.buckets = append(tr.buckets[:i], tr.buckets[i+1:]...)
			}
			return
		}
	}
	panic("power: tracker removal of unknown contribution")
}

// tau returns the live finish time. It is the largest breakpoint:
// every task's end is a breakpoint at start+delay, and any breakpoint is
// a start or end bounded by some end, so max(breakpoint) ==
// max(start+delay). The bucket list is time-ordered, making this O(1)
// instead of an O(n) scan over the task set.
func (tr *Tracker) tau() model.Time {
	if n := len(tr.buckets); n > 0 {
		return tr.buckets[n-1].t
	}
	return 0
}

// materialize sweeps the breakpoints into merged segments exactly the
// way Build does: each breakpoint's contributions are summed into a
// single delta (base first at 0 and tau), the running power is the
// prefix sum of those deltas, and adjacent equal-power segments merge.
// The result replaces out, reusing its segment slice.
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
	var cur float64
	prevT := model.Time(0)
	started := false
	flush := func(t0, t1 model.Time) {
		if t1 <= t0 || t0 >= tau {
			return
		}
		if t1 > tau {
			t1 = tau
		}
		if cur > maxP {
			maxP = cur
		}
		if cur < minP {
			minP = cur
		}
		if n := len(segs); n > 0 && segs[n-1].P == cur && segs[n-1].T1 == t0 {
			segs[n-1].T1 = t1
		} else {
			segs = append(segs, Segment{T0: t0, T1: t1, P: cur})
		}
	}
	step := func(t model.Time, bs float64, cs []contrib) {
		for _, c := range cs {
			bs += c.p
		}
		if started {
			flush(prevT, t)
		}
		cur += bs
		prevT = t
		started = true
	}
	seen0 := false
	for i := 0; i < len(tr.buckets) && tr.buckets[i].t < tau; i++ {
		b := tr.buckets[i]
		var bs float64
		if b.t == 0 {
			bs = tr.base
			seen0 = true
		} else if !seen0 {
			// Build always has a breakpoint at 0 (the base load starts
			// there), even when no task does.
			step(0, tr.base, nil)
			seen0 = true
		}
		step(b.t, bs, b.cs)
	}
	if !seen0 {
		step(0, tr.base, nil)
	}
	// Build's final breakpoint is tau (where the base load ends); its
	// delta is never added to the running power, it only terminates the
	// last segment.
	flush(prevT, tau)
	out.prof, out.maxP, out.minP = Profile{Segs: segs}, maxP, minP
}
