package benchkit

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sched"
)

// TestDifferentialLadder runs the Naive ablation against the
// incremental core on ladder-sized instances and requires identical
// schedules, profiles (bit for bit) and stats. At these sizes the
// min-power probes see hundreds of segments and thousands of
// breakpoint additions, so the incremental path's estimates come much
// nearer their rounding band than on the small specs the sched suite
// diffs. The 1000-task instances run the Naive path for seconds each
// and are skipped under -short.
func TestDifferentialLadder(t *testing.T) {
	for _, c := range []struct {
		n     int
		seeds int64
	}{{200, 5}, {1000, 2}} {
		for seed := int64(1); seed <= c.seeds; seed++ {
			n := c.n
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				if testing.Short() && n > 200 {
					t.Skip("Naive run on a 1000-task instance; skipped under -short")
				}
				p := Generate(n, seed)
				opts := Options(n)
				inc, incErr := sched.MinPower(p, opts)
				opts.Naive = true
				naive, naiveErr := sched.MinPower(p, opts)
				if fmt.Sprint(incErr) != fmt.Sprint(naiveErr) {
					t.Fatalf("error divergence: incremental=%v naive=%v", incErr, naiveErr)
				}
				if incErr != nil {
					return
				}
				if !slices.Equal(inc.Schedule.Start, naive.Schedule.Start) {
					t.Fatalf("schedules diverge\n incremental %v\n naive       %v", inc.Schedule.Start, naive.Schedule.Start)
				}
				if inc.Stats != naive.Stats {
					t.Fatalf("stats diverge: incremental %+v naive %+v", inc.Stats, naive.Stats)
				}
				a, b := inc.Profile.Segs, naive.Profile.Segs
				if len(a) != len(b) {
					t.Fatalf("profiles diverge: %d vs %d segments", len(a), len(b))
				}
				for i := range a {
					if a[i].T0 != b[i].T0 || a[i].T1 != b[i].T1 || math.Float64bits(a[i].P) != math.Float64bits(b[i].P) {
						t.Fatalf("profiles diverge at segment %d: %+v vs %+v", i, a[i], b[i])
					}
				}
			})
		}
	}
}
