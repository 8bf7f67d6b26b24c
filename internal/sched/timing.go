package sched

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/schedule"
)

// timing implements the time-constrained scheduling algorithm of paper
// Fig. 3 (see timingSearch for the search itself). When the restart
// portfolio has published an incumbent, the search first runs with
// speculative subtree pruning: choices whose visit-order-independent
// finish lower bound already exceeds the incumbent's finish are skipped
// outright (DESIGN.md section 13). The speculation never leaks into
// observable results:
//
//   - If the pruned search exhausts its SEARCH SPACE, every leaf hidden
//     by a skip finishes strictly beyond the incumbent, so the whole
//     restart is a provable reduction loser and reports errPruned (a
//     real failure would have been a loser too: the reference search's
//     outcome either fails identically or finishes beyond the bound
//     that was live when its subtree was skipped).
//   - The pruned search runs under a small speculation budget
//     (specBacktracks), not the full MaxBacktracks: when the reference
//     search's first solution lies inside a skipped subtree, the pruned
//     search keeps going into space the reference never visits and
//     would otherwise burn the entire budget before concluding anything
//     (measured as a ~500x portfolio slowdown). Exhausting the clipped
//     budget proves nothing about the reference — which may well
//     succeed within its larger budget — so that outcome is
//     inconclusive (gaveUp) and falls through to the deterministic
//     unpruned rerun below. The speculation is profitable exactly when
//     it reaches a verdict within the small budget; when it can't, the
//     only cost is the wasted speculation.
//   - If it succeeds with a finish still beyond the incumbent, the
//     regular restart-level pruning in maxPower/runTo discards it.
//   - Otherwise the restart might win the reduction, so the search is
//     rerun from scratch WITHOUT pruning, reproducing the reference
//     search — schedule, serialization edges, and stats — bit for bit.
//     (The timing search consumes no randomness, so the rerun needs no
//     RNG bookkeeping; Backtracks is the only stat it touches.)
//
// Cancellation errors always pass through unchanged.
//
// Because every speculation outcome is either a provable reduction
// loser or a bit-identical rerun, WHETHER to speculate is a pure cost
// choice — so it can be decided by an adaptive heuristic without
// touching determinism: after specMissLimit consecutive speculations
// that ended in a rerun (the instance ties the incumbent a lot, or
// its skipped subtrees never exhaust), the worker stops speculating;
// a conclusive prune re-arms it.
func (st *state) timing() (schedule.Schedule, error) {
	entry := st.g.Mark()
	prune := st.inc != nil && st.specMiss < specMissLimit
	sigma, skipped, gaveUp, err := st.timingSearch(prune)
	if !gaveUp {
		if !skipped {
			return sigma, err
		}
		if err != nil {
			if st.ctxErr != nil {
				return schedule.Schedule{}, err
			}
			st.specMiss = 0
			return schedule.Schedule{}, errPruned
		}
		if st.pruned(sigma) {
			// Still beyond the incumbent: let the restart-level pruning
			// in the caller discard the restart (the bound only
			// tightens).
			st.specMiss = 0
			return sigma, nil
		}
		st.specMiss++
	} else {
		st.specMiss++
	}
	st.g.Rollback(entry)
	if st.c.Hetero {
		copy(st.tasks, st.c.Prob.Tasks)
	}
	st.st.Backtracks = 0
	sigma, _, _, err = st.timingSearch(false)
	return sigma, err
}

// specBacktracks is the backtrack budget of the speculative pruned
// timing search, and specMissLimit the consecutive-useless-speculation
// count after which a worker stops speculating. Both only trade
// speculation cost against speculation coverage — determinism never
// depends on them, because an exhausted speculation falls back to the
// reference search and a skipped speculation IS the reference search.
// Small values keep the worst case (speculation that keeps proving
// nothing, full rerun each time) close to the unpruned baseline; the
// conclusive cases (skip-free success, or a provable loser within the
// budget) are where the pruning pays.
const (
	specBacktracks = 64
	specMissLimit  = 3
)

// timingSearch traverses the constraint graph topologically, visiting
// one candidate task at a time; visiting a candidate c serializes every
// not-yet-visited task sharing c's resource after c (edge c -> u with
// weight d(c)). If the added edges create a positive cycle the choice
// is undone and another topological ordering is attempted, so the
// search finds a time-valid schedule whenever one exists (within the
// MaxBacktracks budget). Start times are the longest-path distances
// from the anchor over the final graph.
//
// The search maintains the longest-path solution incrementally: each
// serialization edge is applied with graph.AddEdgeRelaxUndo, which
// updates only the shifted cone of successors, detects the positive
// cycle that would make the choice infeasible, and journals every
// overwritten distance entry — so backtracking replays the journal
// backwards instead of restoring an O(n) per-depth snapshot, and a
// visit step costs O(cone) in both directions. Candidates are taken in
// (current ASAP start, priority) order by lazy minimum selection: the
// distance vector is restored between sibling candidates, so the keys
// are fixed for the whole loop and "smallest key strictly greater than
// the last tried key" enumerates exactly the sorted order without
// materializing or sorting a candidate list. Options.FullRecompute
// falls back to whole-graph recomputation per step (for ablation; the
// distances, and hence the search order and result, are identical).
//
// With prune set, a feasible choice is additionally skipped when its
// finish lower bound — every task's current ASAP start plus a per-task
// minimum delay, a bound no completion of this subtree can beat —
// strictly exceeds the portfolio incumbent's finish, and the backtrack
// budget is clipped to specBacktracks. skipped reports whether any
// subtree was actually skipped (see timing for why that taints the
// outcome); gaveUp reports that the clipped budget ran out, which
// proves nothing about the reference search and obligates the caller
// to rerun without pruning.
func (st *state) timingSearch(prune bool) (sigma schedule.Schedule, skipped, gaveUp bool, err error) {
	n := st.c.NumTasks()
	dist := st.dist
	if !st.g.LongestFromInto(dist, st.c.Anchor) {
		return schedule.Schedule{}, false, false, fmt.Errorf("%w: timing constraints contain a positive cycle", ErrInfeasible)
	}

	visited := st.visited
	for i := range visited {
		visited[i] = false
	}
	// unv[:n-count] lists the unvisited tasks at recursion depth count
	// (in no particular order) and pos[v] is v's index in unv. Visiting
	// c swaps it to the end of that prefix, where the deeper levels,
	// which only permute the shorter prefix, leave it.
	unv, pos := st.unvis, st.unvisPos
	for i := range unv {
		unv[i], pos[i] = i, i
	}
	budget := st.opts.MaxBacktracks
	clipped := false
	if prune && specBacktracks < budget {
		budget = specBacktracks
		clipped = true
	}
	st.undo = st.undo[:0]

	var visit func(count int) bool
	visit = func(count int) bool {
		if count == n {
			return true
		}
		haveLast := false
		var lastD, lastP int
		for {
			// Lazy min-selection of the next candidate: every unvisited
			// task with key (dist, prio) strictly greater than the last
			// tried key, minimal among those. prio is a permutation, so
			// keys are unique: the enumeration reproduces the sorted
			// candidate order whatever the order of unv.
			c := -1
			var selD, selP int
			for _, v := range unv[:n-count] {
				dv, pv := dist[v], st.prio[v]
				if haveLast && (dv < lastD || (dv == lastD && pv <= lastP)) {
					continue
				}
				if c < 0 || dv < selD || (dv == selD && pv < selP) {
					c, selD, selP = v, dv, pv
				}
			}
			if c < 0 {
				return false
			}
			haveLast, lastD, lastP = true, selD, selP
			for _, ci := range st.choiceOrder(count, c, visited, dist) {
				// Cooperative cancellation: once the poll latches an
				// error every recursion level bails on its next try, so
				// the whole search unwinds within one check interval.
				if st.pollCancel() != nil {
					return false
				}
				ch := st.c.Choices[c][ci]
				cp := st.g.Mark()
				um := len(st.undo)
				res := st.c.Res[c]
				d := ch.Delay
				feasible := true
				var saved []int
				if st.opts.FullRecompute {
					// Serialize c after every traversed task sharing its
					// machine, and every untraversed same-resource task
					// after c, then recompute from scratch. Machine mates
					// on c's own resource are skipped: the earlier task's
					// resource edge into c already carries the same
					// weight, which is why a problem whose machines
					// mirror its resources schedules identically to one
					// with no machines at all.
					if ch.Machine >= 0 {
						for u := 0; u < n; u++ {
							if visited[u] && st.assign[u].Machine == ch.Machine && st.c.Res[u] != res {
								st.g.AddEdge(u, c, st.tasks[u].Delay)
							}
						}
					}
					for _, u := range st.c.ResTasks(res) {
						if u != c && !visited[u] {
							st.g.AddEdge(c, u, d)
						}
					}
					if nd, ok := st.g.LongestFrom(st.c.Anchor); ok {
						saved, dist = dist, nd
					} else {
						feasible = false
					}
				} else {
					if ch.Machine >= 0 {
						for u := 0; u < n; u++ {
							if visited[u] && st.assign[u].Machine == ch.Machine && st.c.Res[u] != res {
								if st.undo, feasible = st.g.AddEdgeRelaxUndo(dist, u, c, st.tasks[u].Delay, st.undo); !feasible {
									break
								}
							}
						}
					}
					if feasible {
						for _, u := range st.c.ResTasks(res) {
							if u != c && !visited[u] {
								if st.undo, feasible = st.g.AddEdgeRelaxUndo(dist, c, u, d, st.undo); !feasible {
									break
								}
							}
						}
					}
				}
				if feasible && prune {
					if cur := st.inc.Load(); cur != nil && st.timingLB(dist, visited, c, d) > cur.finish {
						feasible = false
						skipped = true
					}
				}
				if feasible {
					if st.c.Hetero {
						st.assign[c] = model.Choice{Machine: ch.Machine, Level: ch.Level}
						st.tasks[c].Delay = ch.Delay
						st.tasks[c].Power = ch.Power
					}
					last, p := n-count-1, pos[c]
					unv[p], unv[last] = unv[last], c
					pos[unv[p]], pos[c] = p, last
					visited[c] = true
					if visit(count + 1) {
						return true
					}
					visited[c] = false
				}
				st.g.Rollback(cp)
				if st.opts.FullRecompute {
					if saved != nil {
						dist = saved
					}
				} else {
					for i := len(st.undo) - 1; i >= um; i-- {
						dist[st.undo[i].V] = st.undo[i].Old
					}
					st.undo = st.undo[:um]
				}
				st.st.Backtracks++
				if st.st.Backtracks > budget {
					return false
				}
			}
		}
	}

	if !visit(0) {
		if st.ctxErr != nil {
			return schedule.Schedule{}, skipped, false, st.ctxErr
		}
		if st.st.Backtracks > budget {
			if clipped {
				// The speculation budget ran out, not the real one: the
				// reference search may still succeed within
				// MaxBacktracks, so no verdict — the caller reruns.
				return schedule.Schedule{}, skipped, true, nil
			}
			return schedule.Schedule{}, skipped, false, fmt.Errorf("sched: timing search exceeded %d backtracks", budget)
		}
		return schedule.Schedule{}, skipped, false, fmt.Errorf("%w: no serialization order yields a time-valid schedule", ErrInfeasible)
	}

	if !st.g.LongestFromInto(st.cur, st.c.Anchor) {
		// Unreachable: every visited step checked feasibility.
		return schedule.Schedule{}, skipped, false, fmt.Errorf("%w: final graph has a positive cycle", ErrInfeasible)
	}
	st.timingMark = st.g.Mark()
	return schedule.Schedule{Start: st.cur[:n:n]}, skipped, false, nil
}

// timingLB is the visit-order-independent finish lower bound of every
// completion below the current search node, with candidate c about to
// commit delay cd: each task must start at or after its current ASAP
// distance (distances only grow as serialization edges accumulate) and
// run for at least its committed delay (visited tasks and c) or its
// minimum admissible delay (unvisited tasks). The later stages only
// ever delay tasks beyond the timing solution, so the bound holds for
// the restart's final finish too.
func (st *state) timingLB(dist []int, visited []bool, c int, cd model.Time) model.Time {
	n := st.c.NumTasks()
	var lb model.Time
	for v := 0; v < n; v++ {
		var d model.Time
		switch {
		case v == c:
			d = cd
		case visited[v]:
			d = st.tasks[v].Delay
		default:
			d = st.minDel[v]
		}
		if e := dist[v] + d; e > lb {
			lb = e
		}
	}
	return lb
}

// choiceOrder returns the order — as indices into st.c.Choices[c] — in
// which the search tries task c's (machine, level) choices: earliest
// estimated finish first. A choice's estimate is max(current ASAP start
// of c, latest completion of the visited tasks on the choice's machine)
// plus its effective delay; the second term is exactly the bound the
// machine serialization edges will enforce, so the rule steers the
// search away from piling every task onto the fastest machine when a
// slower idle one finishes it sooner. Ties keep the choice list's own
// (delay, power, machine, level) preference order. A degenerate problem
// has exactly one choice per task, so the ordering degenerates to the
// single index 0 and the search is the paper's.
//
// The returned slice is depth's reusable buffer, invalidated by the
// next call at the same depth (the recursion below runs at deeper
// depths and cannot clobber it).
func (st *state) choiceOrder(depth, c int, visited []bool, dist []int) []int {
	choices := st.c.Choices[c]
	ord := st.choiceOrdBuf(depth)
	for i := range choices {
		ord = append(ord, i)
	}
	st.choiceOrdBufs[depth] = ord
	if len(choices) <= 1 {
		return ord
	}
	// Latest completion per machine over the visited tasks: the bound
	// the machine serialization edges of a machine-sharing choice would
	// impose on c's start.
	avail := st.machEFT
	for m := range avail {
		avail[m] = 0
	}
	for u := 0; u < st.c.NumTasks(); u++ {
		if visited[u] && st.assign[u].Machine >= 0 {
			if end := dist[u] + st.tasks[u].Delay; end > avail[st.assign[u].Machine] {
				avail[st.assign[u].Machine] = end
			}
		}
	}
	key := st.choiceKey[:0]
	for _, ch := range choices {
		start := dist[c]
		if ch.Machine >= 0 && avail[ch.Machine] > start {
			start = avail[ch.Machine]
		}
		key = append(key, start+ch.Delay)
	}
	st.choiceKey = key
	// Insertion sort: choice lists are tiny, and its stability is what
	// preserves the preference order on ties.
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && key[ord[j]] < key[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// choiceOrdBuf returns depth's reusable choice-ordering buffer, emptied.
func (st *state) choiceOrdBuf(depth int) []int {
	for len(st.choiceOrdBufs) <= depth {
		st.choiceOrdBufs = append(st.choiceOrdBufs, []int(nil))
	}
	return st.choiceOrdBufs[depth][:0]
}
