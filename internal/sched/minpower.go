package sched

import (
	"repro/internal/model"
	"repro/internal/schedule"
)

const utilEps = 1e-9

// minPower implements the min-power scheduling algorithm of paper
// Fig. 6. Given a valid schedule it repeatedly scans for power gaps
// (P(t) < Pmin) and delays tasks that finished before the gap so they
// execute inside it, accepting a move only when the new schedule stays
// valid, keeps the finish time (same performance), and strictly
// improves min-power utilization. Scans repeat until a fixpoint; the
// whole process runs once per heuristic combination (scan order x slot
// choice, section 5.3) and the best schedule wins. Since the min power
// constraint is soft, remaining gaps are tolerated.
//
// The working schedule is one flat bank (st.cur) mutated in place: each
// combo restores the entry schedule from a snapshot instead of cloning,
// and the best schedule is kept as a snapshot copied back at the end.
//
// Cancellation aborts the stage with the context's error rather than
// returning the best-so-far schedule: min-power is best-effort, but a
// partially optimized result must never masquerade as the
// deterministic full-pipeline outcome (callers cache by content key).
func (st *state) minPower(sigma schedule.Schedule) (schedule.Schedule, error) {
	pmin := st.c.Prob.Pmin
	if pmin <= 0 {
		return sigma, nil
	}
	// The graph may have been rebuilt (compaction) and the schedule
	// re-derived since the last stage: re-sync the incremental core.
	st.syncProfile(sigma)
	st.dirtySlackAll()
	entryU := st.prof(sigma).Utilization(pmin)
	bestU := entryU
	st.bestBuf = append(st.bestBuf[:0], sigma.Start...)
	if bestU >= 1 {
		return sigma, nil
	}
	st.comboBase = append(st.comboBase[:0], sigma.Start...)

	base := st.g.Mark()
	for _, order := range st.opts.ScanOrders {
		for _, slot := range st.opts.SlotChoices {
			st.g.Rollback(base)
			copy(sigma.Start, st.comboBase)
			st.syncProfile(sigma)
			st.dirtySlackAll()
			st.curU = entryU
			st.minPowerCombo(sigma, order, slot)
			if st.ctxErr != nil {
				return schedule.Schedule{}, st.ctxErr
			}
			if st.curU > bestU+utilEps {
				bestU = st.curU
				copy(st.bestBuf, sigma.Start)
			}
			if bestU >= 1 {
				break
			}
		}
	}
	// Re-anchor the working graph on the winning schedule: the per-combo
	// edges were rolled back, so pin every task at its final start.
	st.g.Rollback(base)
	st.dirtySlackAll()
	copy(sigma.Start, st.bestBuf)
	for v := range sigma.Start {
		st.lock(v, sigma.Start[v])
	}
	return sigma, nil
}

// minPowerCombo runs repeated improvement scans under one heuristic
// combination until a scan makes no progress or utilization reaches 1,
// mutating the working schedule in place.
func (st *state) minPowerCombo(sigma schedule.Schedule, order ScanOrder, slot SlotChoice) {
	for scan := 0; scan < st.opts.MaxScans; scan++ {
		if st.pollCancel() != nil {
			return
		}
		st.st.Scans++
		if !st.scanOnce(sigma, order, slot) || st.curU >= 1 {
			return
		}
	}
}

// scanOnce performs one pass over the schedule's power gaps in the
// given order, attempting one accepted move per gap time.
func (st *state) scanOnce(sigma schedule.Schedule, order ScanOrder, slot SlotChoice) bool {
	pmin := st.c.Prob.Pmin
	// Visit the start of every below-Pmin profile segment (not merely
	// every maximal gap): a wide gap can require several moves at
	// different depths, and the profitable insertion point is a segment
	// boundary, not necessarily the gap's left edge.
	times := st.gapTimes[:0]
	for _, seg := range st.prof(sigma).Segs {
		if seg.P < pmin {
			times = append(times, seg.T0)
		}
	}
	st.gapTimes = times
	if len(times) == 0 {
		return false
	}
	switch order {
	case ScanReverse:
		for i, j := 0, len(times)-1; i < j; i, j = i+1, j-1 {
			times[i], times[j] = times[j], times[i]
		}
	case ScanRandom:
		st.rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
	}

	improved := false
	for _, t := range times {
		if st.pollCancel() != nil {
			return false
		}
		// Earlier moves may have already filled (or shifted) this gap.
		if st.prof(sigma).At(t) >= pmin {
			continue
		}
		if st.fillGapAt(sigma, t, slot) {
			improved = true
			if st.curU >= 1 {
				return true
			}
		}
	}
	return improved
}

// fillGapAt tries to delay one task that finished before t so it is
// active at t, mutating the working schedule in place on acceptance.
// Candidates must have enough slack to reach t (the paper's condition
// Delta(v) >= t - sigma(v) - d(v), strict activity). A move is accepted
// when the delayed schedule is time-valid (by construction of the slack
// bound and the incremental longest-path update, re-checked against the
// live constraint edges), power-valid, finishes no later, and strictly
// improves utilization; a rejected move is rolled back exactly via the
// delay's undo journal.
func (st *state) fillGapAt(sigma schedule.Schedule, t model.Time, slot SlotChoice) bool {
	prob := st.c.Prob
	curU := st.curU
	prof := st.prof(sigma)
	// The profile covers [0, Finish), so its extent is the finish time.
	tau := prof.Duration()

	// End of the gap beginning at t, for the finish-at-gap-end slot.
	// The incremental path answers from the tracker's segment index in
	// O(log m); the naive path walks the contiguous segments, merging
	// adjacent below-Pmin runs exactly like Gaps, without materializing
	// the interval list.
	gapEnd := t + 1
	if !st.opts.Naive {
		gapEnd = st.tr.RunEndBelow(t, prob.Pmin)
	} else {
		var g0, g1 model.Time
		have := false
		for _, s := range prof.Segs {
			if s.P >= prob.Pmin {
				continue
			}
			if have && g1 == s.T0 {
				g1 = s.T1
				continue
			}
			if have && g0 <= t && t < g1 {
				break
			}
			g0, g1 = s.T0, s.T1
			have = true
		}
		if have && g0 <= t && t < g1 {
			gapEnd = g1
		}
	}

	for _, v := range st.gapCandidates(sigma, t, tau) {
		if st.pollCancel() != nil {
			return false
		}
		d := st.tasks[v].Delay
		sl := st.slackOf(sigma, v)
		// Latest start keeping the task active at t, clipped by slack.
		latest := t
		if m := sigma.Start[v] + sl; m < latest {
			latest = m
		}
		earliest := t - d + 1 // earliest start that is active at t
		if latest < earliest {
			continue
		}
		var newStart model.Time
		switch slot {
		case SlotFinishAtGapEnd:
			newStart = gapEnd - d
		case SlotRandom:
			newStart = earliest + model.Time(st.rng.Intn(latest-earliest+1))
		default: // SlotStartAtGap
			newStart = t
		}
		if newStart > latest {
			newStart = latest
		}
		if newStart < earliest {
			newStart = earliest
		}
		if newStart <= sigma.Start[v] {
			continue
		}

		cp := st.g.Mark()
		changed, ok := st.delay(v, newStart)
		if ok {
			if u, acc := st.accepts(sigma, tau, curU+utilEps); acc && st.timeValid(sigma) {
				st.st.Moves++
				st.curU = u
				return true
			}
		}
		st.g.Rollback(cp)
		st.undoDelay(changed)
		st.st.Rejected++
	}
	return false
}
