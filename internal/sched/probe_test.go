package sched_test

import (
	"testing"

	"repro/internal/benchkit"
	"repro/internal/sched"
)

// TestProbeFallbacksLadder runs the pipeline on ladder instances and
// reports how often a min-power probe could not be decided from the
// tracker's estimate and fell back to an exact materialization. Every
// accepted move must have been decided exactly, and the fallbacks
// beyond the accepts (estimates within the error band of a threshold)
// must stay rare: most rejections never materialize. The 1000-task
// instances are skipped under -short.
func TestProbeFallbacksLadder(t *testing.T) {
	for _, c := range []struct {
		n     int
		seeds int64
	}{{200, 5}, {1000, 2}} {
		if testing.Short() && c.n > 200 {
			continue
		}
		for seed := int64(1); seed <= c.seeds; seed++ {
			stats, counts, err := sched.ProbeCounts(benchkit.Generate(c.n, seed), benchkit.Options(c.n))
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", c.n, seed, err)
			}
			t.Logf("n=%d seed=%d: probes %d (moves %d, rejected %d), fallbacks %d, materializations %d",
				c.n, seed, counts.Probes, stats.Moves, stats.Rejected, counts.Fallbacks, counts.Materializations)
			if counts.Fallbacks < stats.Moves {
				t.Errorf("n=%d seed=%d: %d fallbacks < %d accepted moves", c.n, seed, counts.Fallbacks, stats.Moves)
			}
			if counts.Probes > stats.Moves+stats.Rejected {
				t.Errorf("n=%d seed=%d: %d probes > %d moves + rejections", c.n, seed, counts.Probes, stats.Moves+stats.Rejected)
			}
			if band := counts.Fallbacks - stats.Moves; band*10 > counts.Probes {
				t.Errorf("n=%d seed=%d: %d of %d probes fell back without being accepted", c.n, seed, band, counts.Probes)
			}
		}
	}
}
