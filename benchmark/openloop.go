package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// arrivals is an open-loop schedule: request k (from 0) is due at
// start + k*period, whatever happened to the requests before it.
type arrivals struct {
	start  time.Time
	period time.Duration
	n      int64
}

func (a arrivals) due(k int64) time.Time { return a.start.Add(time.Duration(k) * a.period) }

// dueBy is how many requests are due at or before t.
func (a arrivals) dueBy(t time.Time) int64 {
	if t.Before(a.start) {
		return 0
	}
	return min(int64(t.Sub(a.start)/a.period)+1, a.n)
}

// openResult is what an open-loop phase measured. lateMS[k] is how
// long after its due time request k was sent; latencyMS[k] runs from
// its due time to its answer (+Inf when it failed).
type openResult struct {
	sent, ok, failed int64
	lateMS           []float64
	latencyMS        []float64
	// backlog[k] is how many requests were due but not yet sent, or
	// sent but not yet answered, when request k was sent.
	backlog []float64
	elapsed time.Duration
}

// runOpenLoop sends the a.n requests of the schedule, each at its due
// time, from one generator that never waits for an answer. At most
// maxInFlight requests are outstanding; when that many are, the
// generator stalls and the later requests go out late, which lateMS
// records. Latency is timed from the due time, so a stall counts
// against every request it delayed.
func runOpenLoop(a arrivals, maxInFlight int, send func(k int64) error) openResult {
	res := openResult{lateMS: make([]float64, a.n), latencyMS: make([]float64, a.n), backlog: make([]float64, a.n)}
	var (
		ok, failed atomic.Int64
		inFlight   atomic.Int64
		wg         sync.WaitGroup
	)
	slots := make(chan struct{}, maxInFlight)
	for k := int64(0); k < a.n; k++ {
		due := a.due(k)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		sent := time.Now()
		res.lateMS[k] = float64(sent.Sub(due)) / 1e6
		res.backlog[k] = float64(a.dueBy(sent) - k - 1 + inFlight.Add(1) - 1)
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			err := send(k)
			done := time.Now()
			inFlight.Add(-1)
			<-slots
			if err != nil {
				// A failed request misses any latency limit.
				res.latencyMS[k] = math.Inf(1)
				failed.Add(1)
				return
			}
			res.latencyMS[k] = float64(done.Sub(a.due(k))) / 1e6
			ok.Add(1)
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(a.start)
	res.sent, res.ok, res.failed = a.n, ok.Load(), failed.Load()
	return res
}
