package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/web"
)

const (
	// openRate is the open-loop arrival rate in requests per second.
	// Over nproc connections at ~1.5 ms a request, two vCPUs carry about
	// 1300 req/s; at 500 the tier stays below half of that even when the
	// host steals half its CPU, so the open-loop latency is the tier's
	// own and not a queue the generator built.
	openRate = 500
	// The open-loop run is invalid when its generator ran behind
	// schedule by more than lateBoundMS at p99, or when at p99 more than
	// backlogBound requests were due and not yet answered. A p99 and not
	// a maximum: one stall of the whole machine must not void a run.
	lateBoundMS  = 50
	backlogBound = 100
	// openMaxInFlight bounds the open loop's outstanding requests (and
	// goroutines) should the tier stall outright.
	openMaxInFlight = 256
	// sampleEvery selects the responses compared with the in-process
	// oracle.
	sampleEvery = 16
	// ridParam carries the benchmark's request id across the router hop
	// on GET /schedule; the shards ignore it. Batch items carry it as an
	// extra JSON field, which the router passes through verbatim.
	ridParam = "bench_rid"
	// missSeedBase keeps the seed= of miss requests clear of the seeds
	// any other request uses.
	missSeedBase = 1 << 40
)

// runServe is serve-zipf: two shards (web server over a service with a
// persistent store as L2) behind the router, in one process but over
// loopback TCP, driven by a Zipf-skewed mix of cache hits, fresh-seed
// misses and batch requests.
func runServe(e env) (*outcome, error) {
	o := &outcome{}
	tr := newTracer()
	var (
		in   *serveInputs
		t    *tier
		warm warmResult
	)
	var parts [4]time.Duration // generate, boot, register, warm
	setupS, err := timeSetup(o, 3, func(last bool) error {
		mark := time.Now()
		lap := func(i int) {
			parts[i] = time.Since(mark)
			mark = time.Now()
		}
		in = genServeInputs(e.seed, int(openRate*e.seconds*openShare))
		lap(0)
		var err error
		t, err = startTier(filepath.Join(e.workdir, "tier"), tr, e.traced)
		lap(1)
		if err == nil {
			err = t.register(in)
			lap(2)
		}
		if err == nil {
			warm, err = t.warm(in)
			lap(3)
		}
		if err != nil || !last {
			t.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	o.note("set-up (last of 3): generate inputs %v, boot tier %v, register %d problems %v, warm %v",
		parts[0].Round(time.Millisecond), parts[1].Round(time.Millisecond), len(in.pool),
		parts[2].Round(time.Millisecond), parts[3].Round(time.Millisecond))
	defer t.close()
	d := &traffic{t: t, in: in, tr: tr, route: routeAround(len(in.pool), warm.refused)}
	d.keepRefusals(warm.refused)
	// A refusal is an answer, not a failed operation: the oracle check
	// holds it to the single process's own refusal, and ok_share counts
	// it against the scheduler.
	o.attempted = int64(len(in.pool))

	if e.traced {
		traceServe(o, e, d)
		return o, nil
	}

	stopRSS := watchRSS(rssInterval)
	m := d.measure(e.seconds, in.open)
	rssMed, rssMax := stopRSS()
	o.set("peak_rss_mb", rssMed, "MiB")
	o.note("peak_rss_mb is the median of the high-water RSS over %v intervals (largest %.1f MiB)", rssInterval, rssMax)
	m.count(o)
	m.report(o)
	o.set("setup_s", setupS, "s")
	scheduled := ratio(float64(len(in.pool)-len(warm.refused)), float64(len(in.pool)))
	answered := ratio(float64(m.closed.ok+m.open.ok-m.refused), float64(m.closed.ok+m.closed.failed+m.open.sent))
	o.set("ok_share", scheduled*answered, "ratio")
	o.note("ok_share = share of pool problems scheduled in warm-up (%.6f: %d of %d refused) x share of measured requests answered with a schedule (%.6f: %d refused)",
		scheduled, len(warm.refused), len(in.pool), answered, m.refused)
	o.set("work_per_s", median(m.rates), "1/s")
	o.note("work_per_s is the median closed-loop rate over the stretches: %.0f req/s", m.rates)
	o.set("p50_ms", percentile(m.open.latencyMS, 50), "ms")
	tail(o, "open-loop latency from due time", m.open.latencyMS, 99)
	o.set("energy_cost_j", warm.ec, "J")
	o.set("finish", warm.fin, "time-units")
	o.note("energy_cost_j and finish are means over the %d pool problems the tier scheduled in warm-up (%d refused)",
		len(in.pool)-len(warm.refused), len(warm.refused))
	d.checkSamples(o)
	return o, nil
}

// openShare is the share of the measured phase spent in the open loop;
// the rest measures closed-loop throughput, whose run-to-run spread is
// the wider of the two.
const openShare = 1.0 / 3

// measured is what one measured phase of serve-zipf produced.
type measured struct {
	rates   []float64 // closed-loop req/s of each stretch
	closed  loopResult
	open    openResult
	refused int64 // answered requests the tier refused, in both loops
}

// measure runs a measured phase of seconds: stretches alternating
// closed-loop and open-loop sending, the open loop sending the requests
// of plan at openRate. The stretches alternate so that both sample the
// whole phase: the machine's speed drifts over tens of seconds.
func (d *traffic) measure(seconds float64, plan []plannedReq) (m measured) {
	refused0 := d.refusals.Load()
	defer func() { m.refused = d.refusals.Load() - refused0 }()
	perStretch := len(plan) / stretches
	for r := 0; r < stretches; r++ {
		c := d.closedLoop(seconds*(1-openShare)/stretches, nproc())
		m.rates = append(m.rates, float64(c.ok)/c.elapsed.Seconds())
		m.closed.ok, m.closed.failed, m.closed.elapsed = m.closed.ok+c.ok, m.closed.failed+c.failed, m.closed.elapsed+c.elapsed
		m.closed.latNS += c.latNS

		lo := r * perStretch
		base := d.openSent.Add(int64(perStretch)) - int64(perStretch)
		op := runOpenLoop(arrivals{start: time.Now().Add(10 * time.Millisecond), period: time.Second / openRate, n: int64(perStretch)},
			openMaxInFlight, func(k int64) error { return d.send(plan[lo+int(k)], int64(len(d.in.closed))+base+k) })
		m.open.sent, m.open.ok, m.open.failed, m.open.elapsed = m.open.sent+op.sent, m.open.ok+op.ok, m.open.failed+op.failed, m.open.elapsed+op.elapsed
		m.open.lateMS = append(m.open.lateMS, op.lateMS...)
		m.open.latencyMS = append(m.open.latencyMS, op.latencyMS...)
		m.open.backlog = append(m.open.backlog, op.backlog...)
	}
	return m
}

// count adds the phase's operations to the run's counts.
func (m measured) count(o *outcome) {
	o.attempted += m.closed.ok + m.closed.failed + m.open.sent
	o.failed += m.closed.failed + m.open.failed
}

// report notes the phase's counts and fails the run when the open loop
// ran too far behind its schedule to measure the tier.
func (m measured) report(o *outcome) {
	o.note("closed loop (%d clients, %d stretches): sent %d, answered %d, failed %d in %.3f s",
		nproc(), stretches, m.closed.ok+m.closed.failed, m.closed.ok, m.closed.failed, m.closed.elapsed.Seconds())
	o.note("open loop (%d req/s over at most %d connections, %d stretches): due %d, sent %d, answered %d, failed %d in %.3f s",
		openRate, nproc(), stretches, len(m.open.latencyMS), m.open.sent, m.open.ok, m.open.failed, m.open.elapsed.Seconds())
	o.note("of the answered requests, %d were refused (no schedule found)", m.refused)
	lateP99, backlogP99 := percentile(m.open.lateMS, 99), percentile(m.open.backlog, 99)
	o.note("open-loop generator lateness p99 %.4g ms (bound %d ms), backlog p99 %.0f requests (bound %d), max %.0f",
		lateP99, lateBoundMS, backlogP99, backlogBound, percentile(m.open.backlog, 100))
	if lateP99 > lateBoundMS || backlogP99 > backlogBound {
		o.fail("open loop invalid: generator ran behind schedule (lateness p99 %.4g ms, backlog p99 %.0f)", lateP99, backlogP99)
	}
}

// traceServe runs the measured phase twice, untraced and then traced,
// each over half the run and half the open-loop plan, and reports the
// per-layer metrics of the traced one.
func traceServe(o *outcome, e env, d *traffic) {
	half, open := e.seconds/2, d.in.open
	u := d.measure(half, open[:len(open)/2])
	u.count(o)
	u.report(o)

	before := d.t.counters()
	d.tr.on.Store(true)
	tm := d.measure(half, open[len(open)/2:])
	d.tr.on.Store(false)
	after := d.t.counters()
	tm.count(o)
	tm.report(o)

	finishTrace(o, d.tr, e, "serve-zipf")
	lts := selfTimes(d.tr.snapshot())
	req, sch, bat := lts["request"], lts["web.schedule"], lts["web.batch"]
	perCall := func(lt layerTime) float64 { return ratio(lt.Total.Seconds()*1e3, float64(lt.Count)) }
	o.set("web.schedule_ms", perCall(sch), "ms")
	o.set("web.batch_ms", perCall(bat), "ms")
	o.set("router.self_ms", ratio(req.Self.Seconds()*1e3, float64(req.Count)), "ms")
	o.set("router.backend_requests_per_request", ratio(float64(sch.Count+bat.Count), float64(req.Count)), "ratio")
	o.set("router.retries", float64(after.retries-before.retries), "count")
	o.set("router.hedges", float64(after.hedges-before.hedges), "count")
	o.note("router.self_ms is client latency minus the shard handler time it covers, per request (base: %d requests)", req.Count)
	after.svc.sub(before.svc).set(o)
	after.store.sub(before.store).set(o)

	uMean, tMean := u.closed.meanMS(), tm.closed.meanMS()
	overhead := tMean/uMean - 1
	o.set("trace.overhead", overhead, "ratio")
	o.note("closed-loop mean latency: untraced %.4g ms (%d requests), traced %.4g ms (%d requests); tracing overhead %+.2f%%",
		uMean, u.closed.ok, tMean, tm.closed.ok, 100*overhead)
	d.checkSamples(o)
}

// routeAround returns, for each pool rank, the rank that requests for
// it name: the rank itself, or, for a problem the tier refused in
// warm-up, the next problem it scheduled. A user does not resubmit a
// plan the tier refused, and the service does not cache a refusal, so
// each repeat costs a full compute: a refused problem at the head of
// the Zipf draw (seed 205 has one) cut a run's throughput by 40 %. The
// refusals count against ok_share instead.
func routeAround(n int, refused []served) []int32 {
	bad := make([]bool, n)
	for _, s := range refused {
		bad[s.req.ranks[0]] = true
	}
	route := make([]int32, n)
	for r := range route {
		t := r
		for k := 0; k < n && bad[t]; k++ {
			t = (t + 1) % n
		}
		route[r] = int32(t)
	}
	return route
}

// traffic sends the planned requests and keeps responses for the
// oracle check: a sample of every sampleEvery-th, and every refusal.
type traffic struct {
	t        *tier
	in       *serveInputs
	tr       *tracer
	route    []int32      // see routeAround
	next     atomic.Int64 // position in the closed-loop plan
	openSent atomic.Int64 // open-loop requests handed out so far
	missSeed atomic.Int64
	refusals atomic.Int64 // requests answered with a refusal
	mu       sync.Mutex
	samples  []served
	refused  []served
	// unchecked counts refusals beyond maxRefusals, which are counted
	// against ok_share but not compared with the oracle.
	unchecked int
}

// maxRefusals bounds how many refused requests are kept for the oracle
// check, whose in-process compute of each would otherwise dominate a
// run in which the tier refuses much.
const maxRefusals = 256

// served is one kept response: the request, the seed= it carried (0
// for none), and the HTTP status and body.
type served struct {
	req    plannedReq
	seed   int64
	status int
	body   []byte
}

// send issues planned request pr and checks the answer; k is its
// position in the run, which decides whether its response is sampled.
// A refusal (422, or a batch with a 422 item) is the scheduler's answer
// that it found no schedule: it is kept for the oracle check, which
// decides whether it was the right answer, and counted against
// ok_share, but it is not a failed request.
func (d *traffic) send(pr plannedReq, k int64) error {
	copied := false
	for j, r := range pr.ranks {
		if d.route[r] != r {
			if !copied {
				pr.ranks, copied = append([]int32(nil), pr.ranks...), true
			}
			pr.ranks[j] = d.route[r]
		}
	}
	root := d.tr.begin("request", 0, 0)
	seed, status, body, err := d.exchange(pr, root)
	d.tr.end(root)
	if err != nil {
		return err
	}
	refused := status == http.StatusUnprocessableEntity
	if status != http.StatusOK && !refused {
		return fmt.Errorf("status %d", status)
	}
	if status == http.StatusOK && pr.kind == kindBatch {
		var out web.BatchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if len(out.Items) != len(pr.ranks) {
			return fmt.Errorf("%d batch items back for %d sent", len(out.Items), len(pr.ranks))
		}
		for _, it := range out.Items {
			switch it.Status {
			case http.StatusOK:
			case http.StatusUnprocessableEntity:
				refused = true
			default:
				return fmt.Errorf("batch item status %d", it.Status)
			}
		}
	}
	s := served{req: pr, seed: seed, status: status, body: body}
	if refused {
		d.refusals.Add(1)
		d.keepRefusals([]served{s})
		return nil
	}
	if k%sampleEvery == 0 {
		d.mu.Lock()
		d.samples = append(d.samples, s)
		d.mu.Unlock()
	}
	return nil
}

func (d *traffic) keepRefusals(ss []served) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range ss {
		if len(d.refused) < maxRefusals {
			d.refused = append(d.refused, s)
		} else {
			d.unchecked++
		}
	}
}

// exchange sends pr through the router, tagged with request id rid,
// and returns the seed= it carried (0 for none) and the response's
// status and body.
func (d *traffic) exchange(pr plannedReq, rid int64) (seed int64, status int, body []byte, err error) {
	var resp *http.Response
	if pr.kind == kindBatch {
		var b bytes.Buffer
		b.WriteString(`{"items":[`)
		for j, r := range pr.ranks {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"problem":%q,%q:%d}`, d.in.pool[r].Name, ridParam, rid)
		}
		b.WriteString(`]}`)
		resp, err = d.t.client.Post(d.t.url+"/schedule/batch", "application/json", &b)
	} else {
		u := fmt.Sprintf("%s/schedule?problem=%s&format=json&%s=%d", d.t.url, d.in.pool[pr.ranks[0]].Name, ridParam, rid)
		if pr.kind == kindMiss {
			seed = missSeedBase + d.missSeed.Add(1)
			u += "&seed=" + strconv.FormatInt(seed, 10)
		}
		resp, err = d.t.client.Get(u)
	}
	if err != nil {
		return seed, 0, nil, err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		return seed, 0, nil, err
	}
	return seed, resp.StatusCode, body, nil
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	ok, failed int64
	latNS      int64 // summed latency of the answered requests
	elapsed    time.Duration
}

func (r loopResult) meanMS() float64 { return ratio(float64(r.latNS)/1e6, float64(r.ok)) }

// closedLoop runs clients goroutines for seconds, each sending the
// next planned request as soon as its previous one is answered.
func (d *traffic) closedLoop(seconds float64, clients int) loopResult {
	var (
		ok, failed atomic.Int64
		latNS      atomic.Int64
		wg         sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := d.next.Add(1) - 1
				t0 := time.Now()
				if err := d.send(d.in.closed[k%int64(len(d.in.closed))], k); err != nil {
					failed.Add(1)
					continue
				}
				latNS.Add(int64(time.Since(t0)))
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	return loopResult{ok: ok.Load(), failed: failed.Load(), latNS: latNS.Load(), elapsed: time.Since(start)}
}

// checkSamples compares every kept response with what a direct
// in-process service.Schedule of the same problem gives: the tier must
// answer byte-identically to a single process, and refuse exactly the
// requests a single process refuses, with the same error.
func (d *traffic) checkSamples(o *outcome) {
	oracle := service.New(service.Config{CacheSize: 2 * poolSize})
	// want returns the schedule JSON a single process serves for pool
	// problem r under seed, or the error message it refuses with.
	want := func(r int32, seed int64) (body []byte, refusal string) {
		res, err := oracle.Schedule(d.in.pool[r], sched.Options{Seed: seed}, service.StageMinPower)
		if err != nil {
			return nil, "scheduling failed: " + err.Error()
		}
		body, err = spec.FormatScheduleJSON(res.EffectiveProblem(), res.Schedule)
		if err != nil {
			return nil, "formatting failed: " + err.Error()
		}
		return body, ""
	}
	same := func(s served) bool {
		if s.req.kind != kindBatch {
			w, refusal := want(s.req.ranks[0], s.seed)
			if s.status == http.StatusOK {
				return refusal == "" && bytes.Equal(w, s.body)
			}
			var e struct {
				Error string `json:"error"`
			}
			return json.Unmarshal(s.body, &e) == nil && refusal != "" && e.Error == refusal
		}
		var out web.BatchResponse
		if err := json.Unmarshal(s.body, &out); err != nil || len(out.Items) != len(s.req.ranks) {
			return false
		}
		for j, it := range out.Items {
			w, refusal := want(s.req.ranks[j], 0)
			var c bytes.Buffer
			switch {
			case it.Status == http.StatusOK:
				if refusal != "" || json.Compact(&c, w) != nil || !bytes.Equal(c.Bytes(), it.Schedule) {
					return false
				}
			case refusal == "" || it.Error != refusal:
				return false
			}
		}
		return true
	}
	bad := 0
	for _, s := range d.samples {
		if !same(s) {
			bad++
		}
	}
	badRefused := 0
	for _, s := range d.refused {
		if !same(s) {
			badRefused++
		}
	}
	o.note("oracle check: %d sampled responses (every %dth request) and %d refusals compared with in-process service.Schedule, %d and %d differ; %d more refusals not compared",
		len(d.samples), sampleEvery, len(d.refused), bad, badRefused, d.unchecked)
	if bad+badRefused > 0 {
		o.fail("%d of %d sampled responses and %d of %d refusals differ from the single-process oracle",
			bad, len(d.samples), badRefused, len(d.refused))
	}
	if len(d.samples) == 0 {
		o.fail("no response was sampled for the oracle check")
	}
}
