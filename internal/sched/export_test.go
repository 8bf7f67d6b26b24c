package sched

import (
	"context"

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
