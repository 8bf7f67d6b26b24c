package power

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
)

// adversarialPower draws a task power that makes rounding matter:
// thirds (inexact in binary), values a few ulps from pmin and pmax (so
// a single active task sits on a threshold), their difference, or an
// arbitrary float.
func adversarialPower(rng *rand.Rand, pmin, pmax float64) float64 {
	ulps := func(x float64) float64 {
		for k := rng.Intn(7) - 3; k != 0; {
			if k > 0 {
				x = math.Nextafter(x, math.Inf(1))
				k--
			} else {
				x = math.Nextafter(x, math.Inf(-1))
				k++
			}
		}
		return x
	}
	switch rng.Intn(6) {
	case 0:
		return float64(1+rng.Intn(30)) / 3
	case 1:
		return ulps(pmin)
	case 2:
		return ulps(pmax)
	case 3:
		return ulps(pmax - pmin)
	case 4:
		return ulps(pmin / 3)
	default:
		return rng.Float64() * pmax
	}
}

// probeOracle is the acceptance test of Tracker.Accepts on a
// from-scratch profile.
func probeOracle(p Profile, pmin, pmax float64, tauMax model.Time, uThr float64) (float64, bool) {
	if !p.Valid(pmax) || p.Duration() > tauMax {
		return 0, false
	}
	u := p.Utilization(pmin)
	return u, u > uThr
}

func maxPower(segs []Segment, from, to model.Time) float64 {
	m := math.Inf(-1)
	for _, s := range segs {
		if s.T1 > from && s.T0 < to && s.P > m {
			m = s.P
		}
	}
	return m
}

// checkTrackerProbe drives one tracker through rounds of random move
// sets, each probed against thresholds around the oracle's exact
// values and then committed or reverted. It checks that Accepts decides
// exactly like the oracle (including at the exact value ±1 ulp, where
// only the exact fallback can decide), that the estimate's certified
// bounds hold, that a revert leaves the committed profile current
// without materializing, and that a commit yields Build's segments.
func checkTrackerProbe(t *testing.T, seed int64, n, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	pmin := []float64{1, 10.0 / 3, 7.1, 0.3}[rng.Intn(4)]
	pmax := pmin * (1.5 + 2*rng.Float64())
	base := 0.0
	if rng.Intn(2) == 0 {
		base = adversarialPower(rng, pmin, pmax) / 2
	}
	tasks := make([]model.Task, n)
	s := schedule.Schedule{Start: make([]model.Time, n)}
	for i := range tasks {
		tasks[i] = model.Task{Name: fmt.Sprintf("t%d", i), Delay: 1 + rng.Intn(6), Power: adversarialPower(rng, pmin, pmax)}
		s.Start[i] = model.Time(rng.Intn(3 * n))
	}
	tr := NewTracker(tasks, s, base)
	committed := Build(tasks, s, base)
	if got := tr.Profile(); !profilesEqual(got, committed) {
		t.Fatalf("seed %d: initial profile mismatch", seed)
	}
	curU := committed.Utilization(pmin)
	for round := 0; round < rounds; round++ {
		tau := committed.Duration()
		moved := map[int]model.Time{}
		var order []int
		for k := 1 + rng.Intn(3); k > 0; k-- {
			v := rng.Intn(n)
			if _, ok := moved[v]; !ok {
				moved[v] = s.Start[v]
				order = append(order, v)
			}
			ns := s.Start[v] + model.Time(rng.Intn(9)) - 3
			if rng.Intn(4) == 0 {
				ns = model.Time(rng.Intn(int(tau) + 2))
			}
			s.Start[v] = max(ns, 0)
			tr.Move(v, s.Start[v])
		}
		live := Build(tasks, s, base)
		liveU, livePeak, liveTau := live.Utilization(pmin), maxPower(live.Segs, 0, live.Duration()), live.Duration()

		if e, ok := tr.estimate(pmin); ok {
			exactF := live.FreeEnergyUsed(pmin)
			if math.Abs(e.free-exactF) > e.freeErr {
				t.Fatalf("seed %d round %d: free energy estimate %v off exact %v by more than %v", seed, round, e.free, exactF, e.freeErr)
			}
			if got := maxPower(live.Segs, 0, e.end); got != e.peak {
				t.Fatalf("seed %d round %d: exact window peak %v, live %v", seed, round, e.peak, got)
			}
			for _, sg := range live.Segs {
				if sg.T1 <= e.end {
					continue
				}
				at := max(sg.T0, e.end)
				if d := math.Abs(sg.P - committed.At(at)); d > e.peakAfterErr {
					t.Fatalf("seed %d round %d: live power at %d drifts %v from committed, bound %v", seed, round, at, d, e.peakAfterErr)
				}
			}
			if after := maxPower(live.Segs, e.end, liveTau); math.Abs(after-e.peakAfter) > e.peakAfterErr && !(math.IsInf(after, -1) && math.IsInf(e.peakAfter, -1)) {
				t.Fatalf("seed %d round %d: after-window peak %v, estimate %v ± %v", seed, round, after, e.peakAfter, e.peakAfterErr)
			}
		}

		up, down := math.Inf(1), math.Inf(-1)
		for _, uThr := range []float64{curU + 1e-9, curU, liveU, math.Nextafter(liveU, up), math.Nextafter(liveU, down), liveU - 1e-9, rng.Float64()} {
			for _, pm := range []float64{pmax, livePeak, math.Nextafter(livePeak, up), math.Nextafter(livePeak, down)} {
				for _, tm := range []model.Time{tau, liveTau, liveTau - 1} {
					wantU, want := probeOracle(live, pmin, pm, tm, uThr)
					gotU, got := tr.Accepts(pmin, pm, tm, uThr)
					if got != want || (want && math.Float64bits(gotU) != math.Float64bits(wantU)) {
						t.Fatalf("seed %d round %d: Accepts(pmin %v, pmax %v, tau %d, uThr %v) = %v, %v; oracle %v, %v",
							seed, round, pmin, pm, tm, uThr, gotU, got, wantU, want)
					}
				}
			}
		}

		if rng.Intn(3) == 0 {
			mats := tr.Counts().Materializations
			got := tr.Profile()
			if !reflect.DeepEqual(got.Segs, live.Segs) && !(len(got.Segs) == 0 && len(live.Segs) == 0) {
				t.Fatalf("seed %d round %d: committed segments differ from Build\n got %v\nwant %v", seed, round, got, live)
			}
			if tr.Counts().Materializations > mats+1 {
				t.Fatalf("seed %d round %d: commit materialized %d times", seed, round, tr.Counts().Materializations-mats)
			}
			committed, curU = live, liveU
			continue
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			s.Start[v] = moved[v]
			tr.Move(v, s.Start[v])
		}
		mats := tr.Counts().Materializations
		if got := tr.Profile(); !profilesEqual(got, committed) {
			t.Fatalf("seed %d round %d: reverted profile differs from the committed one", seed, round)
		}
		if d := tr.Counts().Materializations - mats; d != 0 {
			t.Fatalf("seed %d round %d: revert left the tracker dirty (%d materializations)", seed, round, d)
		}
	}
}

// TestTrackerProbeMatchesOracle runs the probe check over many seeds
// and sizes.
func TestTrackerProbeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkTrackerProbe(t, seed, 1+int(seed%24), 25)
	}
}

// TestTrackerProbeCertifiesRejects pins that the estimate actually
// does its job: a probe far below the threshold is rejected without
// materializing, and a probe that is accepted materializes once and is
// committed by the next Profile call without another sweep.
func TestTrackerProbeCertifiesRejects(t *testing.T) {
	tasks := []model.Task{
		{Name: "a", Delay: 4, Power: 2.5},
		{Name: "b", Delay: 3, Power: 10.0 / 3},
		{Name: "c", Delay: 2, Power: 1.1},
		{Name: "d", Delay: 10, Power: 0.5},
	}
	s := schedule.Schedule{Start: []model.Time{0, 0, 6, 0}}
	tr := NewTracker(tasks, s, 0.25)
	u0 := tr.Profile().Utilization(3)
	if c := tr.Counts(); c.Materializations != 1 {
		t.Fatalf("initial materializations = %d, want 1", c.Materializations)
	}
	// Moving c from the tail onto a and b, where the profile is already
	// above pmin, wastes its free energy: a certain rejection.
	tr.Move(2, 1)
	if _, ok := tr.Accepts(3, 100, 10, u0+1e-9); ok {
		t.Fatal("worse schedule accepted")
	}
	if c := tr.Counts(); c.Materializations != 1 || c.Fallbacks != 0 || c.Probes != 1 {
		t.Fatalf("certain rejection materialized: %+v", c)
	}
	tr.Move(2, 6)
	tr.Profile()
	if c := tr.Counts(); c.Materializations != 1 {
		t.Fatalf("revert rematerialized: %+v", c)
	}
	// Moving b into the gap at [4,6) improves utilization: accepted on
	// the exact fallback, then committed by promotion.
	tr.Move(1, 3)
	s.Start[1] = 3
	u, ok := tr.Accepts(3, 100, 10, u0+1e-9)
	want := Build(tasks, s, 0.25)
	if !ok || u != want.Utilization(3) {
		t.Fatalf("improving move: Accepts = %v, %v; want %v, true", u, ok, want.Utilization(3))
	}
	if got := tr.Profile(); !reflect.DeepEqual(got.Segs, want.Segs) {
		t.Fatalf("committed profile %v, want %v", got, want)
	}
	if c := tr.Counts(); c.Materializations != 2 || c.Fallbacks != 1 {
		t.Fatalf("accept path: %+v, want 2 materializations and 1 fallback", c)
	}
}

// FuzzTrackerProbe fuzzes the probe check: random task sets with
// adversarial powers, random move sets, commit or revert.
func FuzzTrackerProbe(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1 << 20, -3, 99991} {
		f.Add(seed, uint8(seed&31), uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, rounds uint8) {
		checkTrackerProbe(t, seed, 1+int(n%48), 1+int(rounds%40))
	})
}
