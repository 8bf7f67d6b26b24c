package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rssInterval is the length of the intervals peak RSS is taken over.
const rssInterval = 500 * time.Millisecond

// minBeyond is how many samples must lie beyond a percentile before it
// may be reported.
const minBeyond = 10

// ladder holds the percentiles a tail is chosen from.
var ladder = []float64{50, 90, 99, 99.9, 99.99}

// rank is the 1-based nearest-rank position of percentile p in n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 comes
	// out a hair above 9990) from moving the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie beyond the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestSupported is the highest percentile on the ladder with at
// least minBeyond samples beyond it, or 0 when not even the median has.
func highestSupported(n int) float64 {
	for i := len(ladder) - 1; i >= 0; i-- {
		if beyond(n, ladder[i]) >= minBeyond {
			return ladder[i]
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail reports the median and p-th percentile of latencies in ms, with
// the sample count, how many samples lie beyond p and the highest
// percentile the sample supports, and warns when p is not one. Tails
// are reported, not gated: on a shared two-vCPU host a few seconds of
// interference from other tenants move a run's tail by more than the
// largest bound the benchmark may set, while medians and rates hold.
func tail(o *outcome, what string, ms []float64, p float64) {
	n := len(ms)
	v := percentile(ms, p)
	o.note("%s: p50 %.4g ms, p%g %.4g ms (n=%d, %d beyond p%g; highest percentile with >=%d beyond: p%g)",
		what, percentile(ms, 50), p, v, n, beyond(n, p), p, minBeyond, highestSupported(n))
	if beyond(n, p) < minBeyond {
		o.note("WARNING: p%g of %s rests on only %d samples beyond it", p, what, beyond(n, p))
	}
}

// stretches is how many consecutive stretches a measured phase is cut
// into. Rates are medians over the stretches, so interference from the
// machine's other tenants during one stretch moves them little.
const stretches = 5

// stretchRates cuts a phase's operations into stretches consecutive
// runs of equal length and returns each run's work per second of
// operation time; work[i] and secs[i] belong to operation i.
func stretchRates(work, secs []float64) []float64 {
	var rates []float64
	for s := 0; s < stretches; s++ {
		lo, hi := s*len(work)/stretches, (s+1)*len(work)/stretches
		w, t := 0.0, 0.0
		for i := lo; i < hi; i++ {
			w, t = w+work[i], t+secs[i]
		}
		if t > 0 {
			rates = append(rates, w/t)
		}
	}
	return rates
}

// splitmix derives the i-th independent seed from a base seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// timeSetup runs a set-up reps times and returns the median process
// CPU time in seconds, for the reason solve times are CPU time: the
// hypervisor's steal stretches wall time by a third at times. Every
// repetition but the last must leave nothing behind; the last one's
// state is what the measured phase runs on.
func timeSetup(o *outcome, reps int, setup func(last bool) error) (float64, error) {
	cpu, wall := make([]float64, 0, reps), make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start, cpu0 := time.Now(), cpuTime()
		if err := setup(i == reps-1); err != nil {
			return 0, err
		}
		cpu, wall = append(cpu, (cpuTime()-cpu0).Seconds()), append(wall, time.Since(start).Seconds())
	}
	o.note("setup_s is the median process CPU time of %d set-ups: %.4g s (median wall time %.4g s)", reps, median(cpu), median(wall))
	return median(cpu), nil
}

// watchRSS returns freed memory to the system, then records the
// process's high-water RSS over successive intervals until the returned
// stop is called. stop reports the median and the largest interval
// peak in MiB. A single high-water mark over the phase would hinge on
// where the garbage collector happened to run; the median over many
// intervals does not. Without /proc the marks cannot be reset and
// every interval reports the process's whole high-water mark.
func watchRSS(interval time.Duration) (stop func() (median, max float64)) {
	debug.FreeOSMemory()
	clearPeak := func() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }
	clearPeak()
	var peaks []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				peaks = append(peaks, peakRSSMB())
				return
			case <-t.C:
				peaks = append(peaks, peakRSSMB())
				clearPeak()
			}
		}
	}()
	return func() (float64, float64) {
		close(quit)
		<-done
		return percentile(peaks, 50), percentile(peaks, 100)
	}
}

// hostSteal is the CPU time, in seconds, the hypervisor has taken
// from this machine since boot (0 where /proc/stat does not say).
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100 // USER_HZ
}

// peakRSSMB is the process's high-water resident set in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
