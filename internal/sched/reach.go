package sched

import (
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/schedule"
)

// noReach is the tree value of an empty finish slot: below every query
// time.
const noReach = math.MinInt

// reachIndex answers the min-power stage's candidate query — which
// tasks can be delayed into activity at time t — in time proportional
// to the answer. A task v is a candidate at t exactly when it has
// finished by t and its slack reaches t, i.e. when t lies in its reach
// window [fin(v), fin(v)+Slack(v)-1] (paper Fig. 6, strict activity).
//
// Tasks sit in intrusive doubly linked lists, one per finish slot over
// [0, tau]; an implicit max-tree over the slots (in the style of
// power's segIndex) holds each slot's largest reach end. A query at t
// visits only the slots <= t whose subtree maximum is >= t. When the
// finish time exceeds the task count, slots widen to 2^shift time
// units so there are at most n of them; a query then also filters the
// boundary slot by finish.
//
// Maintenance is lazy and piggybacks on the slack cache: every task
// whose cached slack is invalidated (state.dirtySlack) is queued, and
// the next query re-reads the queued tasks' finish and slack and
// re-links only those whose window changed. An index entry is thus
// trusted exactly when the task's slack-cache entry would be.
// state.dirtySlackAll invalidates the whole index, and the next query
// rebuilds it in O(n + slots).
//
// Every bank is sized once and reused across queries, combos, and
// restarts.
type reachIndex struct {
	valid bool
	tau   model.Time // extent the slots were built over
	shift uint       // slot = finish >> shift
	slots int        // live slot count: (tau >> shift) + 1
	size  int        // padded leaf count: smallest power of two >= slots

	head  []int        // first task per slot, -1 when empty
	max   []model.Time // 2*size nodes, 1-based; slot b lives at size+b
	next  []int        // per task: next task in its slot's list, or -1
	prev  []int        // per task: previous task in its slot's list, or -1
	fin   []model.Time // per task: finish time the entry was built from
	reach []model.Time // per task: last time its window covers

	queued []bool // per task: already in queue
	queue  []int  // tasks whose entry must be re-read before the next query

	// slotBank backs head and max; the per-task slices and queue share
	// one bank allocated on first use.
	slotBank []int

	cands []gapCand // query scratch
}

// enqueue marks v's entry as untrusted. An invalid index is rebuilt
// wholesale on the next query, so there is nothing to queue.
func (ix *reachIndex) enqueue(v int) {
	if !ix.valid || ix.queued[v] {
		return
	}
	ix.queued[v] = true
	ix.queue = append(ix.queue, v)
}

// truncate unqueues the tasks queued after the queue held mark
// entries: the move that queued them was rolled back exactly, so their
// entries are current again.
func (ix *reachIndex) truncate(mark int) {
	if !ix.valid {
		return
	}
	for _, v := range ix.queue[mark:] {
		ix.queued[v] = false
	}
	ix.queue = ix.queue[:mark]
}

// invalidate drops the whole index; the next query rebuilds it.
func (ix *reachIndex) invalidate() {
	for _, v := range ix.queue {
		ix.queued[v] = false
	}
	ix.queue = ix.queue[:0]
	ix.valid = false
}

// gapCand is a gap-fill candidate with its selection keys.
type gapCand struct {
	v      int
	power  float64
	finish model.Time
}

// gapCandCmp is the selection order of gap-fill candidates: descending
// power (a bigger consumer fills more of the gap), then descending
// finish time, then ascending index.
func gapCandCmp(a, b gapCand) int {
	switch {
	case a.power > b.power || (a.power == b.power && a.finish > b.finish):
		return -1
	case b.power > a.power || (b.power == a.power && b.finish > a.finish):
		return 1
	}
	return a.v - b.v
}

// gapCandidates returns tasks that finish at or before t and have
// enough slack to be delayed into activity at t, in gapCandCmp order.
// tau is the schedule's finish time. The result lives in state-owned
// buffers reused across calls.
//
// The naive path rebuilds the index before every query, so it shares
// the query but none of the incremental bookkeeping.
func (st *state) gapCandidates(sigma schedule.Schedule, t, tau model.Time) []int {
	ix := &st.reach
	if st.opts.Naive || !ix.valid || ix.tau != tau {
		st.buildReach(sigma, tau)
	} else {
		for _, v := range ix.queue {
			ix.queued[v] = false
			st.refreshReach(sigma, v)
		}
		ix.queue = ix.queue[:0]
	}

	cs := ix.cands[:0]
	last := t >> ix.shift
	for b := ix.firstAtOrAbove(0, t); b >= 0 && b <= last; b = ix.firstAtOrAbove(b+1, t) {
		for v := ix.head[b]; v >= 0; v = ix.next[v] {
			if ix.fin[v] <= t && ix.reach[v] >= t {
				cs = append(cs, gapCand{v: v, power: st.tasks[v].Power, finish: ix.fin[v]})
			}
		}
	}
	ix.cands = cs
	slices.SortFunc(cs, gapCandCmp)
	out := st.gapOrder[:0]
	for _, c := range cs {
		out = append(out, c.v)
	}
	st.gapOrder = out
	return out
}

// reachEnd returns v's finish and the last time its reach window
// covers under sigma.
func (st *state) reachEnd(sigma schedule.Schedule, v int) (fin, reach model.Time) {
	fin = sigma.Start[v] + st.tasks[v].Delay
	return fin, fin + st.slackOf(sigma, v) - 1
}

// buildReach rebuilds the index from scratch over [0, tau]: every task
// is linked into its finish slot and the tree is built bottom-up.
func (st *state) buildReach(sigma schedule.Schedule, tau model.Time) {
	ix := &st.reach
	n := len(st.tasks)
	if len(ix.fin) != n {
		bank := make([]int, 5*n)
		ix.next, ix.prev = bank[:n:n], bank[n:2*n:2*n]
		ix.fin, ix.reach = bank[2*n:3*n:3*n], bank[3*n:4*n:4*n]
		ix.queue = bank[4*n : 4*n : 5*n] // a task is queued at most once
		ix.queued = make([]bool, n)
	}
	ix.invalidate()
	ix.tau = tau
	// Cap the slot count at n: a finish time beyond the task count
	// widens the slots instead, which keeps the rebuild at every combo
	// boundary O(n) and the average slot list short.
	ix.shift = 0
	for (tau>>ix.shift)+1 > max(n, 1) {
		ix.shift++
	}
	ix.slots = tau>>ix.shift + 1
	ix.size = 1
	for ix.size < ix.slots {
		ix.size *= 2
	}
	if cap(ix.slotBank) < ix.slots+2*ix.size {
		ix.slotBank = make([]int, ix.slots+2*ix.size)
	}
	ix.head = ix.slotBank[:ix.slots]
	ix.max = ix.slotBank[ix.slots : ix.slots+2*ix.size]
	for b := range ix.head {
		ix.head[b] = -1
	}
	for i := ix.size; i < 2*ix.size; i++ {
		ix.max[i] = noReach
	}
	for v := 0; v < n; v++ {
		fin, reach := st.reachEnd(sigma, v)
		ix.fin[v], ix.reach[v] = fin, reach
		ix.link(v)
		if leaf := ix.size + fin>>ix.shift; reach > ix.max[leaf] {
			ix.max[leaf] = reach
		}
	}
	for i := ix.size - 1; i >= 1; i-- {
		ix.max[i] = max(ix.max[2*i], ix.max[2*i+1])
	}
	ix.valid = true
}

// refreshReach re-reads queued task v's window and re-links it when
// the window moved. A rejected probe restores its tasks exactly, so
// their entries come back unchanged and cost a slack re-read and one
// comparison.
func (st *state) refreshReach(sigma schedule.Schedule, v int) {
	ix := &st.reach
	fin, reach := st.reachEnd(sigma, v)
	if fin == ix.fin[v] && reach == ix.reach[v] {
		return
	}
	ob := ix.fin[v] >> ix.shift
	ix.unlink(v)
	ix.fin[v], ix.reach[v] = fin, reach
	ix.link(v)
	if nb := fin >> ix.shift; nb != ob {
		ix.fixSlot(nb)
	}
	ix.fixSlot(ob)
}

// link pushes v onto the front of its finish slot's list.
func (ix *reachIndex) link(v int) {
	b := ix.fin[v] >> ix.shift
	h := ix.head[b]
	ix.prev[v], ix.next[v] = -1, h
	if h >= 0 {
		ix.prev[h] = v
	}
	ix.head[b] = v
}

// unlink removes v from its finish slot's list.
func (ix *reachIndex) unlink(v int) {
	p, nx := ix.prev[v], ix.next[v]
	if p >= 0 {
		ix.next[p] = nx
	} else {
		ix.head[ix.fin[v]>>ix.shift] = nx
	}
	if nx >= 0 {
		ix.prev[nx] = p
	}
}

// fixSlot recomputes slot b's largest reach end from its list and
// propagates it toward the root, stopping once an ancestor is
// unchanged.
func (ix *reachIndex) fixSlot(b int) {
	m := noReach
	for v := ix.head[b]; v >= 0; v = ix.next[v] {
		if ix.reach[v] > m {
			m = ix.reach[v]
		}
	}
	i := ix.size + b
	ix.max[i] = m
	for i > 1 {
		i /= 2
		m = max(ix.max[2*i], ix.max[2*i+1])
		if ix.max[i] == m {
			return
		}
		ix.max[i] = m
	}
}

// firstAtOrAbove returns the smallest slot >= from whose largest reach
// end is at least t, or -1.
func (ix *reachIndex) firstAtOrAbove(from int, t model.Time) int {
	if from >= ix.slots {
		return -1
	}
	// Climb from the leaf, checking right siblings' subtrees, then
	// descend to the leftmost qualifying leaf.
	i := ix.size + from
	if ix.max[i] < t {
		for {
			if i == 1 {
				return -1
			}
			if i%2 == 0 && ix.max[i+1] >= t {
				i++
				break
			}
			i /= 2
		}
	}
	for i < ix.size {
		if ix.max[2*i] >= t {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return i - ix.size
}
