package main

import (
	"math"
	"syscall"
	"time"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// solveSetupInstances is how many instances set-up generates before
// the measured phase; later ones are generated between solves, outside
// the timed calls.
const solveSetupInstances = 32

// runSolve is solve-large: one goroutine schedules fresh 1000-task
// instances with the full pipeline (sched.MinPower), the designer's
// "give me a schedule" path at the size where the min-power stage does
// nearly all the work.
func runSolve(e env) (*outcome, error) {
	o := &outcome{}
	var pre []*model.Problem
	setupS, err := timeSetup(o, 9, func(bool) error {
		pre = make([]*model.Problem, solveSetupInstances)
		for i := range pre {
			pre[i] = solveInstance(e.seed, i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &solver{o: o, seed: e.seed, opts: benchkit.Options(solveTasks), pre: pre}
	if e.traced {
		traceSolve(o, e, s)
		return o, nil
	}

	stopRSS := watchRSS(rssInterval)
	// Solve time is process CPU time. A solve is one pure computation
	// on one goroutine, so on a quiet host its CPU time is its latency;
	// on a shared two-vCPU virtual machine the hypervisor can take a
	// sixth of the CPU for minutes at a time, which slows the wall time
	// of whole runs by a third but is not CPU time of the process. Wall
	// times are in the report.
	var (
		lat, wallMS, work, secs []float64
		ec, fin                 float64
		refCount                int
	)
	s.loop(nil, e.seconds, math.MaxInt, func(i int, r *sched.Result, wall, cpu time.Duration) {
		tasks := 0
		if r != nil {
			tasks = len(r.Tasks)
		}
		work, secs = append(work, float64(tasks)), append(secs, cpu.Seconds())
		if r == nil {
			return
		}
		lat, wallMS = append(lat, float64(cpu)/1e6), append(wallMS, float64(wall)/1e6)
		if i < refSuite {
			ec += r.EnergyCost()
			fin += float64(r.Finish())
			refCount++
		}
	})
	rssMed, rssMax := stopRSS()
	o.set("peak_rss_mb", rssMed, "MiB")
	o.note("peak_rss_mb is the median of the high-water RSS over %v intervals (largest %.1f MiB)", rssInterval, rssMax)
	o.set("setup_s", setupS, "s")
	o.set("ok_share", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio")
	rates := stretchRates(work, secs)
	o.set("work_per_s", median(rates), "1/s")
	o.note("work_per_s is tasks scheduled per second of MinPower CPU time, median over %d stretches: %.0f", stretches, rates)
	o.set("p50_ms", percentile(lat, 50), "ms")
	tail(o, "MinPower CPU time per instance", lat, 90)
	tail(o, "MinPower wall time per instance", wallMS, 90)
	o.set("energy_cost_j", ratio(ec, float64(refCount)), "J")
	o.set("finish", ratio(fin, float64(refCount)), "time-units")
	o.note("energy_cost_j and finish are means over the %d-instance reference suite", refCount)
	return o, nil
}

// solver solves and checks the instances of one solve-large run.
type solver struct {
	o    *outcome
	seed int64
	opts sched.Options
	pre  []*model.Problem // the instances set-up generated
}

func (s *solver) instance(i int) *model.Problem {
	if i < len(s.pre) {
		return s.pre[i]
	}
	return solveInstance(s.seed, i)
}

// loop solves instances 0, 1, ... until at least the reference suite
// is done and the MinPower calls took seconds of wall time, or until
// max instances are, and hands each result (nil on failure) with the
// MinPower call's wall and process CPU time to each.
func (s *solver) loop(tr *tracer, seconds float64, max int, each func(i int, r *sched.Result, wall, cpu time.Duration)) {
	var total time.Duration
	for i := 0; i < max && (i < refSuite || total.Seconds() < seconds); i++ {
		r, wall, cpu := s.solve(tr, i)
		total += wall
		each(i, r, wall, cpu)
	}
}

// solve runs MinPower on instance i and checks the schedule. With the
// tracer on, it first runs Timing and MaxPower on the instance, so the
// stage times come out as differences of the three calls, and compiles
// the instance's constraint graph.
func (s *solver) solve(tr *tracer, i int) (r *sched.Result, wall, cpu time.Duration) {
	p := s.instance(i)
	s.o.attempted++
	root := tr.begin("solve", 0, 0)
	defer tr.end(root)
	if tr.active() {
		for _, st := range []struct {
			name string
			f    func(*model.Problem, sched.Options) (*sched.Result, error)
		}{{"sched.timing", sched.Timing}, {"sched.maxpower", sched.MaxPower}} {
			id := tr.begin(st.name, root, root)
			st.f(p, s.opts) //nolint:errcheck // MinPower below reports any failure
			tr.end(id)
		}
		id := tr.begin("schedule.compile", root, root)
		if _, err := schedule.Compile(p); err != nil {
			s.o.fail("instance %d: schedule.Compile: %v", i, err)
		}
		tr.end(id)
	}
	id := tr.begin("sched.minpower", root, root)
	start, cpu0 := time.Now(), cpuTime()
	r, err := sched.MinPower(p, s.opts)
	wall, cpu = time.Since(start), cpuTime()-cpu0
	tr.end(id)
	if err != nil {
		s.o.failed++
		s.o.note("instance %d (benchkit seed %d) failed: %v", i, solveSeed(s.seed, i), err)
		return nil, wall, cpu
	}
	checkSolve(s.o, tr, root, i, p, r)
	return r, wall, cpu
}

// traceSolve measures the per-layer metrics: it solves instances with
// the tracer off for half the run, then the same instances again with
// it on, and compares the MinPower calls of the two halves for the
// tracing overhead.
func traceSolve(o *outcome, e env, s *solver) {
	half := e.seconds / 2
	var untraced []time.Duration
	s.loop(nil, half, math.MaxInt, func(_ int, _ *sched.Result, wall, _ time.Duration) {
		untraced = append(untraced, wall)
	})

	tr := newTracer()
	tr.on.Store(true)
	var (
		n                       int
		tracedMin, untracedMin  float64
		probes, moves           int
		backtracks, spikeRounds int
		segments                int
	)
	s.loop(tr, half, len(untraced), func(i int, r *sched.Result, wall, _ time.Duration) {
		if r == nil {
			return
		}
		n++
		tracedMin += wall.Seconds()
		untracedMin += untraced[i].Seconds()
		probes += r.Stats.Moves + r.Stats.Rejected
		moves += r.Stats.Moves
		backtracks += r.Stats.Backtracks
		spikeRounds += r.Stats.SpikeRounds
		segments += len(r.Profile.Segs)
	})
	tr.on.Store(false)
	finishTrace(o, tr, e, "solve-large")
	if n == 0 {
		o.fail("the traced half solved no instance")
		return
	}
	// Stage times per instance, over every traced instance: MaxPower
	// runs Timing first and MinPower runs MaxPower first.
	lts := selfTimes(tr.snapshot())
	per := func(name string) float64 {
		lt := lts[name]
		return ratio(lt.Total.Seconds(), float64(lt.Count))
	}
	timingS := per("sched.timing")
	maxS := per("sched.maxpower") - timingS
	minS := per("sched.minpower") - per("sched.maxpower")
	fn := float64(n)
	o.set("sched.timing_s", timingS, "s")
	o.set("sched.maxpower_s", maxS, "s")
	o.set("sched.minpower_s", minS, "s")
	o.set("sched.minpower.probes", float64(probes)/fn, "count")
	o.set("sched.minpower.accept_ratio", ratio(float64(moves), float64(probes)), "ratio")
	o.set("sched.minpower.ns_per_probe", ratio(minS*1e9*fn, float64(probes)), "ns")
	o.set("sched.backtracks", float64(backtracks)/fn, "count")
	o.set("sched.spike_rounds", float64(spikeRounds)/fn, "count")
	o.set("schedule.compile_s", per("schedule.compile"), "s")
	o.set("power.build_s", per("power.build"), "s")
	o.set("power.segments", float64(segments)/fn, "count")
	o.set("verify.check_s", per("verify.check"), "s")
	overhead := tracedMin/untracedMin - 1
	o.set("trace.overhead", overhead, "ratio")

	stages := timingS + maxS + minS
	o.note("per instance over %d instances: timing %.4g s, maxpower %.4g s, minpower %.4g s", n, timingS, maxS, minS)
	o.note("probes per instance %.0f (base: Moves+Rejected of MinPower), accept ratio %.4f (base: %d probes), %.0f ns per probe (base: minpower stage time)",
		float64(probes)/fn, ratio(float64(moves), float64(probes)), probes, ratio(minS*1e9*fn, float64(probes)))
	verdict := "does not dominate"
	if minS > stages/2 {
		verdict = "dominates, as the ROADMAP profile says"
	}
	o.note("sched.minpower share of the solve: %.1f%% (base: timing+maxpower+minpower = %.4g s per instance) - %s",
		100*minS/stages, stages, verdict)
	o.note("stage times sum to %.2f%% of the untraced MinPower time of the same instances; tracing overhead %+.2f%% (base: %.4g s untraced per instance)",
		100*stages*fn/untracedMin, 100*overhead, untracedMin/fn)
}

// checkSolve fails the run unless the schedule passes verify.Check,
// and the energy cost and finish that the result reports and that
// power.Build gives for the schedule both match the ones verify.Check
// computes on its own, second by second.
func checkSolve(o *outcome, tr *tracer, parent int64, i int, p *model.Problem, r *sched.Result) {
	id := tr.begin("power.build", parent, parent)
	prof := power.Build(r.Tasks, r.Schedule, p.BasePower)
	_ = prof.Utilization(p.Pmin)
	ec := prof.EnergyCost(p.Pmin)
	tr.end(id)

	id = tr.begin("verify.check", parent, parent)
	rep := verify.Check(p, r.Schedule)
	tr.end(id)

	if !rep.OK() {
		o.fail("instance %d: verify.Check: %v", i, rep.Err())
	}
	want := rep.Metrics.EnergyCost
	for _, c := range []struct {
		by string
		ec float64
		fn model.Time
	}{{"the result", r.EnergyCost(), r.Finish()}, {"power.Build", ec, prof.Duration()}} {
		if math.Abs(c.ec-want) > 1e-9*math.Max(1, math.Abs(want)) || c.fn != rep.Metrics.Finish {
			o.fail("instance %d: energy cost %v and finish %d from %s, verify.Check computes %v and %d",
				i, c.ec, c.fn, c.by, want, rep.Metrics.Finish)
		}
	}
}

// cpuTime is the CPU time the process has used. On a virtual machine
// whose kernel accounts steal time, it leaves out the time the
// hypervisor gave to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
