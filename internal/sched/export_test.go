package sched

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
)

// ProbeCounts runs the full pipeline once on p and returns its stats
// together with the power tracker's work counters, for tests in
// package sched_test.
func ProbeCounts(p *model.Problem, opts Options) (Stats, power.TrackerCounts, error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return Stats{}, power.TrackerCounts{}, err
	}
	st := newState(context.Background(), c, opts, nil)
	st.reset(0)
	res, err := st.runTo(stageMinPower)
	if err != nil {
		return Stats{}, power.TrackerCounts{}, err
	}
	return res.Stats, st.tr.Counts(), nil
}

// ReachHarness drives the min-power stage's working state by hand —
// probes kept or rolled back, combo resets — so tests in package
// sched_test can compare the reach index against the brute-force scan
// after every step.
type ReachHarness struct {
	st        *state
	sigma     schedule.Schedule
	base      graph.Checkpoint
	comboBase []model.Time
}

// NewReachHarness runs the pipeline on p through the max-power stage
// and enters the min-power stage's working state on its schedule.
func NewReachHarness(p *model.Problem, opts Options) (*ReachHarness, error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return nil, err
	}
	st := newState(context.Background(), c, opts, nil)
	st.reset(0)
	sigma, err := st.maxPower()
	if err != nil {
		return nil, err
	}
	st.syncProfile(sigma)
	st.dirtySlackAll()
	return &ReachHarness{
		st:        st,
		sigma:     sigma,
		base:      st.g.Mark(),
		comboBase: append([]model.Time(nil), sigma.Start...),
	}, nil
}

// NumTasks returns the task count.
func (h *ReachHarness) NumTasks() int { return len(h.sigma.Start) }

// Start returns task v's current start.
func (h *ReachHarness) Start(v int) model.Time { return h.sigma.Start[v] }

// Power returns task v's power.
func (h *ReachHarness) Power(v int) float64 { return h.st.tasks[v].Power }

// Tau returns the working schedule's finish time.
func (h *ReachHarness) Tau() model.Time { return h.st.prof(h.sigma).Duration() }

// Slack returns task v's slack under the working schedule, computed
// from scratch.
func (h *ReachHarness) Slack(v int) model.Time {
	return schedule.Slack(h.st.g, h.st.c, h.sigma, v)
}

// Probe delays task v to start at newStart exactly as a min-power
// probe does, then keeps the move when keep is set and rolls it back
// otherwise. It reports whether the delay was feasible (an infeasible
// one is rolled back either way).
func (h *ReachHarness) Probe(v int, newStart model.Time, keep bool) bool {
	cp := h.st.g.Mark()
	changed, ok := h.st.delay(v, newStart)
	if ok && !keep {
		h.st.g.Rollback(cp)
		h.st.undoDelay(changed)
	}
	return ok
}

// ResetCombo restores the stage-entry schedule and graph the way a new
// heuristic combination does.
func (h *ReachHarness) ResetCombo() {
	h.st.g.Rollback(h.base)
	copy(h.sigma.Start, h.comboBase)
	h.st.syncProfile(h.sigma)
	h.st.dirtySlackAll()
}

// SlotShift returns the reach index's slot width exponent (0 while
// every finish time has its own slot).
func (h *ReachHarness) SlotShift() uint { return h.st.reach.shift }

// Candidates returns the reach index's gap candidates at t, in
// selection order.
func (h *ReachHarness) Candidates(t model.Time) []int {
	return append([]int(nil), h.st.gapCandidates(h.sigma, t, h.Tau())...)
}

// ScanCandidates is the test oracle for the reach index: it scans every
// task for those that finish at or before t with enough slack, computed
// from scratch, to be active at t, and stably sorts them from index
// order by descending power, then descending finish.
func (h *ReachHarness) ScanCandidates(t model.Time) []int {
	var cs []gapCand
	for v, task := range h.st.tasks {
		fin := h.sigma.Start[v] + task.Delay
		if fin <= t && h.Slack(v) >= t-fin+1 {
			cs = append(cs, gapCand{v: v, power: task.Power, finish: fin})
		}
	}
	slices.SortStableFunc(cs, func(a, b gapCand) int {
		switch {
		case a.power > b.power || (a.power == b.power && a.finish > b.finish):
			return -1
		case b.power > a.power || (b.power == a.power && b.finish > a.finish):
			return 1
		}
		return 0
	})
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.v
	}
	return out
}
