package power

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
)

// randomInstance draws n tasks with starts in [0, 40·scale) and delays
// in [1, 7·scale]. A large scale puts several breakpoint times into one
// directory slot and widens the slots.
func randomInstance(rng *rand.Rand, n int, scale model.Time) ([]model.Task, schedule.Schedule) {
	tasks := make([]model.Task, n)
	starts := make([]model.Time, n)
	for i := range tasks {
		tasks[i] = model.Task{
			Name:  fmt.Sprintf("t%d", i),
			Delay: 1 + rng.Intn(7*scale),
			// Irrational-ish powers so floating-point accumulation
			// order differences would actually show up.
			Power: rng.Float64() * 13.7,
		}
		starts[i] = model.Time(rng.Intn(40 * scale))
	}
	return tasks, schedule.Schedule{Start: starts}
}

// trackerScales are the time scales the tracker oracles run at: unit
// times, a few times per slot, and slots widened far beyond the task
// count.
var trackerScales = []model.Time{1, 3, 1 << 10, 1 << 30}

// lastTask returns the task that ends last under s (the lowest index
// among ties): moving it earlier empties the last breakpoint unless
// another task ends there too.
func lastTask(tasks []model.Task, s schedule.Schedule) int {
	v := 0
	for i := range tasks {
		if s.Start[i]+tasks[i].Delay > s.Start[v]+tasks[v].Delay {
			v = i
		}
	}
	return v
}

// checkLayout verifies the tracker's breakpoint banks against the task
// starts directly: one live breakpoint per distinct start or end time,
// each in its own slot's time-ordered chain, its contributors in
// ascending node id, and its cached delta equal to Build's sum for that
// time; the occupancy bitmap, free stack, breakpoint count, and finish
// time agree with the chains.
func checkLayout(t *testing.T, tr *Tracker) {
	t.Helper()
	want := map[model.Time][]int32{}
	for id := range int32(len(tr.nodeP)) {
		tm := tr.nodeTime(id)
		want[tm] = append(want[tm], id)
	}
	live, last := 0, model.Time(0)
	for s, h := range tr.slot {
		if occ := tr.occ[s>>6]>>(s&63)&1 == 1; occ != (h >= 0) {
			t.Fatalf("slot %d: occupancy bit %v, head %d", s, occ, h)
		}
		prev := model.Time(-1)
		for b := h; b >= 0; b = tr.bp[b].next {
			bp := tr.bp[b]
			if bp.t>>tr.shift != s || bp.t <= prev {
				t.Fatalf("breakpoint %d at %d misplaced in slot %d (shift %d) after %d", b, bp.t, s, tr.shift, prev)
			}
			prev = bp.t
			var got []int32
			for q := bp.head; q >= 0; q = tr.nodeNext[q] {
				if tr.nodeBp[q] != b {
					t.Fatalf("node %d listed at breakpoint %d but records %d", q, b, tr.nodeBp[q])
				}
				got = append(got, q)
			}
			if !slices.Equal(got, want[bp.t]) {
				t.Fatalf("breakpoint at %d lists nodes %v, want %v", bp.t, got, want[bp.t])
			}
			var d float64
			if bp.t == 0 {
				d = tr.base
			}
			for _, q := range got {
				d += tr.nodeP[q]
			}
			if math.Float64bits(d) != math.Float64bits(bp.delta) {
				t.Fatalf("breakpoint at %d caches delta %v, Build sums %v", bp.t, bp.delta, d)
			}
			live++
			last = max(last, bp.t)
		}
	}
	if live != len(want) || live != tr.nbp || len(tr.free) != len(tr.nodeP)-live || last != tr.tau() {
		t.Fatalf("%d live breakpoints (count %d, %d free) for %d times; tau %d, want %d",
			live, tr.nbp, len(tr.free), len(want), tr.tau(), last)
	}
}

func profilesEqual(a, b Profile) bool {
	if len(a.Segs) == 0 && len(b.Segs) == 0 {
		return true
	}
	return reflect.DeepEqual(a.Segs, b.Segs)
}

// TestTrackerMatchesBuild drives a tracker through random move
// sequences at every scale of trackerScales, including moves past the
// slot directory's horizon and moves that pull the finish time in, and
// checks after every single move the breakpoint layout (checkLayout)
// and that the profile is bit-identical (same segment boundaries, same
// float64 power values) to a from-scratch Build of the same schedule.
func TestTrackerMatchesBuild(t *testing.T) {
	var widened, shrunk, chained bool
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scale := trackerScales[seed%int64(len(trackerScales))]
		n := 1 + rng.Intn(12)
		base := 0.0
		if rng.Intn(2) == 0 {
			base = rng.Float64() * 3.3
		}
		tasks, s := randomInstance(rng, n, scale)
		tr := NewTracker(tasks, s, base)
		checkLayout(t, tr)
		if got, want := tr.Profile(), Build(tasks, s, base); !profilesEqual(got, want) {
			t.Fatalf("seed %d: initial profile mismatch\n got %v\nwant %v", seed, got, want)
		}
		for move := 0; move < 60; move++ {
			v := rng.Intn(n)
			tau, shift := tr.tau(), tr.shift
			switch rng.Intn(10) {
			case 0: // past the directory's horizon: the slots must widen
				s.Start[v] = model.Time(len(tr.slot))<<tr.shift + model.Time(rng.Intn(8*scale))
			case 1: // pull the last-ending task in: tau may shrink
				v = lastTask(tasks, s)
				s.Start[v] = model.Time(rng.Intn(10 * scale))
			default:
				s.Start[v] = model.Time(rng.Intn(50 * scale))
			}
			tr.Move(v, s.Start[v])
			checkLayout(t, tr)
			widened = widened || tr.shift > shift
			shrunk = shrunk || tr.tau() < tau
			for _, h := range tr.slot {
				chained = chained || (h >= 0 && tr.bp[h].next >= 0)
			}
			got, want := tr.Profile(), Build(tasks, s, base)
			if !profilesEqual(got, want) {
				t.Fatalf("seed %d move %d: profile mismatch after moving task %d to %d\n got %v\nwant %v",
					seed, move, v, s.Start[v], got, want)
			}
		}
		// Reset back onto a fresh schedule and re-check.
		_, s2 := randomInstance(rng, n, scale)
		tr.Reset(s2)
		checkLayout(t, tr)
		if got, want := tr.Profile(), Build(tasks, s2, base); !profilesEqual(got, want) {
			t.Fatalf("seed %d: post-Reset profile mismatch\n got %v\nwant %v", seed, got, want)
		}
	}
	if !widened || !shrunk || !chained {
		t.Fatalf("coverage: widened %v, tau shrunk %v, multi-breakpoint slot %v", widened, shrunk, chained)
	}
}

// TestTrackerMoveNoop checks that moving a task onto its current start
// leaves the cached profile valid.
func TestTrackerMoveNoop(t *testing.T) {
	tasks := []model.Task{{Name: "a", Delay: 3, Power: 2.5}}
	s := schedule.Schedule{Start: []model.Time{4}}
	tr := NewTracker(tasks, s, 1)
	before := tr.Profile().String()
	tr.Move(0, 4)
	if after := tr.Profile().String(); after != before {
		t.Fatalf("no-op move changed profile: %s -> %s", before, after)
	}
}

// TestTrackerDerivedQuantities spot-checks that the quantities the
// schedulers actually branch on (At, Spikes, Gaps, Utilization,
// EnergyCost) agree between tracker and Build profiles, including after
// moves that change the finish time tau.
func TestTrackerDerivedQuantities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks, s := randomInstance(rng, 9, 1)
	base := 0.75
	tr := NewTracker(tasks, s, base)
	for move := 0; move < 40; move++ {
		v := rng.Intn(len(tasks))
		s.Start[v] = model.Time(rng.Intn(60))
		tr.Move(v, s.Start[v])
		got, want := tr.Profile(), Build(tasks, s, base)
		if got.Utilization(5) != want.Utilization(5) {
			t.Fatalf("move %d: utilization %v != %v", move, got.Utilization(5), want.Utilization(5))
		}
		if got.EnergyCost(5) != want.EnergyCost(5) {
			t.Fatalf("move %d: energy cost %v != %v", move, got.EnergyCost(5), want.EnergyCost(5))
		}
		if !reflect.DeepEqual(got.Spikes(10), want.Spikes(10)) || !reflect.DeepEqual(got.Gaps(5), want.Gaps(5)) {
			t.Fatalf("move %d: spikes/gaps diverge", move)
		}
		for q := model.Time(0); q < got.Duration(); q += 3 {
			if got.At(q) != want.At(q) {
				t.Fatalf("move %d: At(%d) %v != %v", move, q, got.At(q), want.At(q))
			}
		}
	}
}
