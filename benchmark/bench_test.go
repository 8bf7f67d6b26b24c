package main

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/spec"
	"repro/internal/verify"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0}, // 7 beyond the median
		{20, 50},
		{99, 50}, // 9 beyond p90
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	} {
		got := highestSupported(c.n)
		if got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if beyond(100, 90) != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", beyond(100, 90))
	}
}

func TestStretchRates(t *testing.T) {
	work := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	secs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 2}
	got := stretchRates(work, secs)
	want := []float64{1, 2, 3, 4, 2.5}
	if len(got) != len(want) {
		t.Fatalf("stretchRates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stretchRates = %v, want %v", got, want)
		}
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: concurrent children count once
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent: clipped
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root": {Count: 1, Total: 100, Self: 100 - 50 - 10},
		"a":    {Count: 1, Total: 30, Self: 25},
		"b":    {Count: 2, Total: 60, Self: 60},
		"leaf": {Count: 1, Total: 5, Self: 5},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off", 0, 0); id != 0 {
		t.Fatalf("tracer off recorded span %d", id)
	}
	tr.on.Store(true)
	root := tr.begin("root", 0, 0)
	child := tr.begin("child", root, root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Req != root || spans[1].Req != root || spans[1].Parent != root {
		t.Fatalf("spans = %+v; want a root and a child sharing the root's request id", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 || nilTracer.end(id) != 0 {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestArrivalsDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a := arrivals{start: t0, period: time.Millisecond, n: 5}
	if got := a.due(3); !got.Equal(t0.Add(3 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got)
	}
	for _, c := range []struct {
		at   time.Duration
		want int64
	}{{-time.Millisecond, 0}, {0, 1}, {2500 * time.Microsecond, 3}, {time.Hour, 5}} {
		if got := a.dueBy(t0.Add(c.at)); got != c.want {
			t.Errorf("dueBy(start%+v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// A stalled request must delay the ones queued behind it, and their
// latency, timed from when they were due, must include the stall.
func TestOpenLoopCountsStallsFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	a := arrivals{start: time.Now().Add(5 * time.Millisecond), period: 2 * time.Millisecond, n: 6}
	res := runOpenLoop(a, 1, func(k int64) error {
		if k == 0 {
			time.Sleep(stall)
		}
		if k == 5 {
			return errors.New("refused")
		}
		return nil
	})
	if res.sent != 6 || res.ok != 5 || res.failed != 1 {
		t.Fatalf("sent/ok/failed = %d/%d/%d, want 6/5/1", res.sent, res.ok, res.failed)
	}
	// Request 1 was due 2ms after request 0 but could only go out once
	// request 0's 40ms stall ended.
	if late := res.lateMS[1]; late < 30 {
		t.Errorf("request 1 went out %.3g ms late, want >= 30", late)
	}
	if lat := res.latencyMS[1]; lat < 30 {
		t.Errorf("request 1 latency %.3g ms from due time, want >= 30", lat)
	}
	if !math.IsInf(res.latencyMS[5], 1) {
		t.Errorf("failed request latency = %v, want +Inf", res.latencyMS[5])
	}
	if res.backlog[1] < 4 {
		t.Errorf("backlog when request 1 went out: %v, want >= 4 (requests 1..5 fell due during the stall)", res.backlog[1])
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := genServeInputs(7, 500).encode(), genServeInputs(7, 500).encode(), genServeInputs(8, 500).encode()
	if !bytes.Equal(a, b) {
		t.Error("serve-zipf: seed 7 generated different inputs twice")
	}
	if bytes.Equal(a, c) {
		t.Error("serve-zipf: seeds 7 and 8 generated the same inputs")
	}
	for _, i := range []int{0, refSuite - 1, refSuite, refSuite + 5} {
		x, y, z := spec.Format(solveInstance(7, i)), spec.Format(solveInstance(7, i)), spec.Format(solveInstance(8, i))
		if x != y {
			t.Errorf("solve-large instance %d: seed 7 generated different inputs twice", i)
		}
		if ref := i < refSuite; ref != (x == z) {
			t.Errorf("solve-large instance %d: same across seeds = %v, want %v (reference suite)", i, x == z, ref)
		}
	}
}

// Every pool problem has a schedule, whatever the scheduler finds: the
// serial one, tasks one after another in index order, passes
// verify.Check. And feasible rejects only problems no schedule exists
// for.
func TestServePoolIsFeasible(t *testing.T) {
	in := genServeInputs(3, 10)
	if len(in.pool) != poolSize || len(in.specs) != poolSize {
		t.Fatalf("pool has %d problems and %d specs, want %d", len(in.pool), len(in.specs), poolSize)
	}
	for _, p := range in.pool {
		s := schedule.Schedule{Start: make([]model.Time, len(p.Tasks))}
		var at model.Time
		for i, task := range p.Tasks {
			s.Start[i] = at
			at += task.Delay
		}
		if rep := verify.Check(p, s); !rep.OK() {
			t.Fatalf("%s: serial schedule: %v", p.Name, rep.Err())
		}
	}
	rejected := 0
	for i := 0; i < 3*poolSize; i++ {
		p := benchkit.Generate(poolTasks, splitmix(3, i))
		if feasible(p) {
			continue
		}
		rejected++
		if _, err := sched.MinPower(p, sched.Options{}); err == nil {
			t.Errorf("%s rejected, but MinPower schedules it", p.Name)
		}
	}
	if rejected == 0 {
		t.Error("no generated problem was rejected; the test no longer covers feasible")
	}
}

func TestRouteAroundRefusedProblems(t *testing.T) {
	refused := func(ranks ...int32) []served {
		var ss []served
		for _, r := range ranks {
			ss = append(ss, served{req: plannedReq{kind: kindHit, ranks: []int32{r}}})
		}
		return ss
	}
	got := routeAround(6, refused(1, 2, 5))
	want := []int32{0, 3, 3, 3, 4, 0}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("routeAround = %v, want %v", got, want)
		}
	}
	if got := routeAround(2, refused(0, 1)); got[0] != 0 || got[1] != 1 {
		t.Errorf("every problem refused: routeAround = %v, want each rank kept", got)
	}
}

func TestPlanShares(t *testing.T) {
	plan := genPlan(11, 20000)
	var n [3]int
	for _, r := range plan {
		n[r.kind]++
		if want := map[reqKind]int{kindHit: 1, kindMiss: 1, kindBatch: batchItems}[r.kind]; len(r.ranks) != want {
			t.Fatalf("kind %v request names %d problems, want %d", r.kind, len(r.ranks), want)
		}
	}
	for k, want := range map[reqKind]float64{kindBatch: batchShare, kindMiss: missShare} {
		if got := float64(n[k]) / float64(len(plan)); math.Abs(got-want) > 0.01 {
			t.Errorf("kind %v: share %.4f, want %.2f", k, got, want)
		}
	}
}

func TestSpecNamesTheProgramsWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}
