package sched_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/spec"
)

// reachProblem generates a small random instance for the reach-index
// tests: few resources, powers from a short list (equal-power ties),
// and sparse forward precedences, some with max separations. Tasks
// without successors or max bounds keep InfiniteSlack. Long delays
// stretch the finish time far past the index's slot cap.
func reachProblem(rng *rand.Rand, n int, long bool) *model.Problem {
	scale := 1
	if long {
		scale = 16
	}
	powers := []float64{1, 2, 2, 3.5}
	var b strings.Builder
	total := 0.0
	for i := 0; i < n; i++ {
		p := powers[rng.Intn(len(powers))]
		total += p
		fmt.Fprintf(&b, "task t%d R%d %d %g\n", i, rng.Intn(1+n/4), scale*(1+rng.Intn(4)), p)
	}
	for j := 1; j < n; j++ {
		if rng.Intn(2) == 0 {
			continue
		}
		i, lo := rng.Intn(j), rng.Intn(3)
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "t%d -> t%d [%d,%d]\n", i, j, lo, lo+2+rng.Intn(6))
		} else {
			fmt.Fprintf(&b, "t%d -> t%d [%d,]\n", i, j, lo)
		}
	}
	pmax := total
	if rng.Intn(2) == 0 {
		pmax = 3.5 + rng.Float64()*(total-3.5)
	}
	fmt.Fprintf(&b, "pmax %g\npmin %g\n", pmax, pmax/2)
	p, err := spec.ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return p
}

// reachCoverage records whether a run exercised the index's edge
// cases.
type reachCoverage struct {
	infinite, tie, exact, widened bool
}

// checkReach compares the reach index with the brute-force scan at
// every time in [0, tau].
func checkReach(t *testing.T, h *sched.ReachHarness, cov *reachCoverage, step string) {
	t.Helper()
	tau := h.Tau()
	if cov != nil {
		cov.exact = cov.exact || h.SlotShift() == 0
		cov.widened = cov.widened || h.SlotShift() > 0
	}
	for at := model.Time(0); at <= tau; at++ {
		got, want := h.Candidates(at), h.ScanCandidates(at)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: candidates at t=%d (tau %d): index %v, scan %v", step, at, tau, got, want)
		}
		if cov == nil {
			continue
		}
		for i, v := range got {
			if h.Slack(v) == schedule.InfiniteSlack {
				cov.infinite = true
			}
			if i > 0 && h.Power(v) == h.Power(got[i-1]) {
				cov.tie = true
			}
		}
	}
}

// reachStep applies one operation: 0 resets the combo, 1 keeps a
// probe, anything else rolls it back.
func reachStep(h *sched.ReachHarness, op, v int, by model.Time) string {
	switch op {
	case 0:
		h.ResetCombo()
		return "combo reset"
	case 1:
		ok := h.Probe(v, h.Start(v)+by, true)
		return fmt.Sprintf("accept delay t%d by %d (feasible %v)", v, by, ok)
	default:
		ok := h.Probe(v, h.Start(v)+by, false)
		return fmt.Sprintf("undo delay t%d by %d (feasible %v)", v, by, ok)
	}
}

// TestReachIndexMatchesScan runs random instances through random
// sequences of probes kept or rolled back and combo resets, on the
// incremental and the naive path, and requires the reach index to
// return exactly the brute-force candidate list at every time after
// every step.
func TestReachIndexMatchesScan(t *testing.T) {
	var cov reachCoverage
	ran := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := reachProblem(rng, 4+rng.Intn(20), seed%4 == 0)
		for _, naive := range []bool{false, true} {
			h, err := sched.NewReachHarness(p.Clone(), sched.Options{Seed: seed, Naive: naive})
			if err != nil {
				continue // infeasible instance: nothing to index
			}
			ran++
			checkReach(t, h, &cov, fmt.Sprintf("seed %d naive %v: entry", seed, naive))
			steps := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				// Up to three probes between queries, as in the stage.
				var did []string
				for k := 0; k <= steps.Intn(3); k++ {
					op := steps.Intn(8)
					if op == 0 && steps.Intn(3) != 0 {
						op = 2 // keep resets rarer than probes
					}
					did = append(did, reachStep(h, op, steps.Intn(h.NumTasks()), 1+steps.Intn(5)))
				}
				checkReach(t, h, &cov, fmt.Sprintf("seed %d naive %v step %d: %s", seed, naive, i, strings.Join(did, ", ")))
			}
		}
	}
	if ran < 40 {
		t.Fatalf("only %d of 120 instance runs were feasible", ran)
	}
	if !cov.infinite || !cov.tie || !cov.exact || !cov.widened {
		t.Fatalf("coverage gap: InfiniteSlack candidate %v, equal-power tie %v, one-unit slots %v, widened slots %v",
			cov.infinite, cov.tie, cov.exact, cov.widened)
	}
}

// FuzzReachIndex is TestReachIndexMatchesScan under fuzzer control: the
// instance comes from seed and size (its top bit selects long delays),
// and each ops byte picks an operation, a task, and a delay.
func FuzzReachIndex(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{1, 2, 7, 0, 33, 9})
	f.Add(int64(7), uint8(20), []byte{5, 5, 5, 5, 0, 13, 200, 17})
	f.Add(int64(42), uint8(3), []byte{})
	f.Add(int64(5), uint8(0x8c), []byte{9, 1, 250, 3, 0, 77})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ops []byte) {
		if len(ops) > 64 {
			return
		}
		p := reachProblem(rand.New(rand.NewSource(seed)), 2+int(size&0x7f)%24, size&0x80 != 0)
		for _, naive := range []bool{false, true} {
			h, err := sched.NewReachHarness(p.Clone(), sched.Options{Seed: seed, Naive: naive})
			if err != nil {
				return
			}
			checkReach(t, h, nil, "entry")
			for i, b := range ops {
				step := reachStep(h, int(b&7)%3, int(b>>3)%h.NumTasks(), 1+model.Time(b>>6))
				checkReach(t, h, nil, fmt.Sprintf("naive %v op %d: %s", naive, i, step))
			}
		}
	})
}
