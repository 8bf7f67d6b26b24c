package main

import (
	"bytes"
	"context"
	"math"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

const (
	// campaignRuns is the size of one campaign call: small enough that
	// a measured phase holds a few hundred calls, so the p90 call
	// latency has well over ten samples beyond it.
	campaignRuns = 256
	warmRuns     = 256
	// mergeCheckRuns is the prefix on which a whole Run must equal the
	// Merge of two ReduceRange halves byte for byte.
	mergeCheckRuns = 64
	// campaignWorkers is the campaign service's worker count.
	campaignWorkers = 1
)

// runCampaign is campaign-rover: fault-injection campaigns over the
// paper's rover mission, each with a fresh service as a CLI campaign
// has, so the scheduler serves many small residual reschedules and the
// sim run loop and reducer do the rest.
func runCampaign(e env) (*outcome, error) {
	o := &outcome{}
	var m sim.Mission
	setupS, err := timeSetup(o, 15, func(bool) error {
		m = sim.PaperMission()
		_, err := newCampaign(m, warmRuns, splitmix(e.seed, -1)).Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		traceCampaign(o, e, m)
		checkMerge(o, m, e.seed)
		return o, nil
	}

	stopRSS := watchRSS(rssInterval)
	before := sim.Progress()
	var (
		lat, work, secs      []float64
		survived             int
		energySum, finishSum float64
	)
	c := campaigns(o, m, e.seed, nil, e.seconds, math.MaxInt, func(sum sim.Summary, d time.Duration, _ *sim.Campaign) {
		work, secs = append(work, float64(sum.Runs)), append(secs, d.Seconds())
		if sum.Runs == 0 {
			return
		}
		lat = append(lat, float64(d)/1e6)
		survived += sum.Survived
		energySum += sum.EnergyCost.Mean * float64(sum.Runs)
		finishSum += sum.Finish.Mean * float64(sum.Survived)
	})
	rssMed, rssMax := stopRSS()
	o.set("peak_rss_mb", rssMed, "MiB")
	o.note("peak_rss_mb is the median of the high-water RSS over %v intervals (largest %.1f MiB)", rssInterval, rssMax)
	if done := sim.Progress().RunsDone - before.RunsDone; done != c.runs {
		o.fail("sim.Progress counted %d runs done, the summaries %d", done, c.runs)
	}
	o.set("setup_s", setupS, "s")
	o.set("ok_share", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio")
	rates := stretchRates(work, secs)
	o.set("work_per_s", median(rates), "1/s")
	o.note("work_per_s is seeded runs folded per second of campaign wall time, median over %d stretches: %.0f (%d runs in %.3f s, %d per campaign)",
		stretches, rates, c.runs, c.wall.Seconds(), campaignRuns)
	o.set("p50_ms", percentile(lat, 50), "ms")
	tail(o, "campaign call", lat, 90)
	o.set("energy_cost_j", ratio(energySum, float64(c.runs)), "J")
	o.set("finish", ratio(finishSum, float64(survived)), "time-units")
	o.note("energy_cost_j is the mean battery energy over all %d runs, finish the mean completion time over the %d that survived", c.runs, survived)
	checkMerge(o, m, e.seed)
	return o, nil
}

// newCampaign builds a campaign with its own service, as a CLI run
// has. The service runs one worker: on a box whose two vCPUs share a
// core, a campaign on both runs at a rate that swings by a third with
// the load of other tenants, which no bound on this metric could
// absorb; one worker still makes every residual reschedule go through
// the service's cache and admission path.
func newCampaign(m sim.Mission, runs int, seed int64) sim.Campaign {
	return sim.Campaign{
		Mission: m, Faults: sim.DefaultFaults(), Runs: runs, Seed: seed,
		Svc: service.New(service.Config{Workers: campaignWorkers}),
	}
}

// campaignTotals is what a sequence of campaign calls did.
type campaignTotals struct {
	calls int
	runs  int64
	wall  time.Duration // summed wall time of the calls
}

// campaigns runs campaigns k = 0, 1, ... of campaignRuns runs each, the
// k-th seeded from the run's seed, until they took seconds of wall time
// or max were run, and hands each summary (zero on failure) with the
// call's wall time and the campaign to each. A call is ReduceRange over
// the whole seed range and Finalize, which is what Campaign.Run does;
// doing it here lets the tracer time the two steps and lets every
// campaign's reducer be merged into a total, whose run count is
// checked. With the tracer on, each call and merge is a span.
func campaigns(o *outcome, m sim.Mission, seed int64, tr *tracer, seconds float64, max int,
	each func(sum sim.Summary, d time.Duration, c *sim.Campaign)) campaignTotals {
	var t campaignTotals
	total := sim.NewReducer()
	for k := 0; k < max && t.wall.Seconds() < seconds; k++ {
		c := newCampaign(m, campaignRuns, splitmix(seed, k))
		o.attempted++
		root := tr.begin("campaign", 0, 0)
		start := time.Now()
		id := tr.begin("sim.reduce_range", root, root)
		red, err := c.ReduceRange(context.Background(), 0, c.Runs)
		tr.end(id)
		var sum sim.Summary
		if err == nil {
			sum = red.Finalize(c.Seed)
		}
		d := time.Since(start)
		tr.end(root)
		t.calls++
		t.wall += d
		if err != nil {
			o.failed++
			o.note("campaign %d failed: %v", k, err)
			each(sim.Summary{}, d, &c)
			continue
		}
		if sum.Runs != campaignRuns {
			o.fail("campaign %d: summary has %d runs, %d requested", k, sum.Runs, campaignRuns)
		}
		t.runs += int64(sum.Runs)
		id = tr.begin("sim.merge", 0, root)
		total.Merge(red)
		tr.end(id)
		each(sum, d, &c)
	}
	if total.Runs() != t.runs {
		o.fail("merged reducer holds %d runs, the campaigns %d", total.Runs(), t.runs)
	}
	return t
}

// traceCampaign runs campaigns with the tracer off for half the run,
// then as many with it on, and reports the per-layer metrics of the
// traced half and the change in mean call time as tracing overhead.
func traceCampaign(o *outcome, e env, m sim.Mission) {
	half := e.seconds / 2
	u := campaigns(o, m, e.seed, nil, half, math.MaxInt, func(sim.Summary, time.Duration, *sim.Campaign) {})

	tr := newTracer()
	tr.on.Store(true)
	var (
		reschedules int
		workerNS    float64
		svc         svcCounters
	)
	t := campaigns(o, m, e.seed, tr, half, u.calls, func(sum sim.Summary, d time.Duration, c *sim.Campaign) {
		reschedules += sum.Reschedules
		workerNS += float64(c.Svc.Pool().Workers()) * float64(d)
		svc.add(c.Svc.Stats())
	})
	tr.on.Store(false)
	finishTrace(o, tr, e, "campaign-rover")
	lts := selfTimes(tr.snapshot())
	rr, mg := lts["sim.reduce_range"], lts["sim.merge"]
	o.set("sim.reduce_range_s", ratio(rr.Total.Seconds(), float64(rr.Count)), "s")
	o.set("sim.merge_s", ratio(mg.Total.Seconds(), float64(mg.Count)), "s")
	o.set("sim.reschedules_per_run", ratio(float64(reschedules), float64(t.runs)), "ratio")
	o.set("sim.scheduler_share", ratio(float64(svc.computeNS), workerNS), "ratio")
	o.note("sim.scheduler_share = service compute time / (workers x campaign wall time) = %.4g s / %.4g worker-s",
		float64(svc.computeNS)/1e9, workerNS/1e9)
	o.note("sim.reschedules_per_run base: %d runs in %d campaigns", t.runs, t.calls)
	svc.set(o)
	uMean, tMean := ratio(u.wall.Seconds(), float64(u.calls)), ratio(t.wall.Seconds(), float64(t.calls))
	overhead := tMean/uMean - 1
	o.set("trace.overhead", overhead, "ratio")
	o.note("campaign call mean: untraced %.4g s (%d calls), traced %.4g s (%d calls); tracing overhead %+.2f%%",
		uMean, u.calls, tMean, t.calls, 100*overhead)
}

// checkMerge fails the run unless one Run of a short campaign renders
// the same JSON bytes as the Merge of its two ReduceRange halves.
func checkMerge(o *outcome, m sim.Mission, seed int64) {
	s := splitmix(seed, -3)
	whole, err := newCampaign(m, mergeCheckRuns, s).Run()
	if err != nil {
		o.fail("merge check: Run: %v", err)
		return
	}
	c := newCampaign(m, mergeCheckRuns, s)
	lo, err := c.ReduceRange(context.Background(), 0, mergeCheckRuns/2)
	if err != nil {
		o.fail("merge check: ReduceRange: %v", err)
		return
	}
	hi, err := c.ReduceRange(context.Background(), mergeCheckRuns/2, mergeCheckRuns)
	if err != nil {
		o.fail("merge check: ReduceRange: %v", err)
		return
	}
	lo.Merge(hi)
	a, errA := whole.JSON()
	b, errB := lo.Finalize(s).JSON()
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		o.fail("merge check: Run and the Merge of two ReduceRange halves differ")
		return
	}
	o.note("merge check: Run of %d runs equals the Merge of two ReduceRange halves byte for byte", mergeCheckRuns)
}
