package power

import (
	"math"

	"repro/internal/model"
)

// unitRoundoff is u = 2^-53, the relative error bound of one
// round-to-nearest float64 operation: fl(x) = x/(1+η) with |η| <= u,
// so |fl(x) - x| <= u·|fl(x)|.
const unitRoundoff = 0x1p-53

// Accepts decides the min-power acceptance test on the live state:
// whether its profile P satisfies
//
//	P.Valid(pmax) && P.Duration() <= tauMax && P.Utilization(pmin) > uThr
//
// returning u = P.Utilization(pmin) when it does. The decision is
// exactly that of the expression above on a materialized profile, but
// most rejections are certified from the committed profile and a sweep
// over the moved window alone (estimate); only accepts and estimates
// too close to a threshold materialize the live state, into a spare
// snapshot that the next Profile call promotes. Moving the pending
// tasks back after a rejection leaves the tracker clean.
func (tr *Tracker) Accepts(pmin, pmax float64, tauMax model.Time, uThr float64) (float64, bool) {
	tr.counts.Probes++
	if tr.certainReject(pmin, pmax, tauMax, uThr) {
		return 0, false
	}
	tr.counts.Fallbacks++
	s := &tr.cm
	if !tr.clean() {
		if !tr.spOK {
			if c := cap(tr.cm.prof.Segs); cap(tr.sp.prof.Segs) < c {
				tr.sp.prof.Segs = make([]Segment, 0, c)
			}
			tr.materialize(&tr.sp)
			tr.spOK = true
		}
		s = &tr.sp
	}
	if s.maxP > pmax || s.prof.Duration() > tauMax {
		return 0, false
	}
	u := s.prof.Utilization(pmin)
	return u, u > uThr
}

// certainReject reports whether the live state provably fails the
// acceptance test of Accepts. It is sound: a true result implies the
// exact test fails. A false result decides nothing.
func (tr *Tracker) certainReject(pmin, pmax float64, tauMax model.Time, uThr float64) bool {
	tau := tr.tau()
	if tau > tauMax {
		return true // the finish time is an integer read exactly
	}
	e, ok := tr.estimate(pmin)
	if !ok {
		return false
	}
	if e.peak > pmax || e.peakAfter-e.peakAfterErr > pmax {
		return true
	}
	// Utilization is fl(F/fl(pmin·tau)), monotone in F, and the live F
	// is at most free+freeErr; freeErr's slack absorbs the rounding of
	// the sum below.
	return (e.free+e.freeErr)/(pmin*float64(tau)) <= uThr
}

// probeEst is the estimate of the live profile a probe decides on.
type probeEst struct {
	// free estimates the live free energy ∫min(P, pmin) as summed by
	// Profile.FreeEnergyUsed; |free - exact| <= freeErr.
	free, freeErr float64
	// peak is the exact largest live power before the window's end
	// (the unchanged prefix and the swept window).
	peak float64
	// end is the window's end: the first live breakpoint past the
	// moved ones, or tau. peakAfter is the committed largest power in
	// [end, tau) (-Inf when end is tau); each live power there is
	// within peakAfterErr of the committed one at the same time.
	end                     model.Time
	peakAfter, peakAfterErr float64
}

// estimate evaluates the pending moves against the committed profile.
// ok is false when no estimate is available: nothing is committed or
// pending, pmin is not positive, or the finish time moved.
//
// Live buckets before winLo equal the committed ones, so the running
// power entering the window is the committed power at winLo-1, bit for
// bit. The sweep over the buckets in [winLo, winHi] repeats
// materialize's operations, so the window's live powers are exact as
// well. After the window the buckets are again the committed ones, but
// the running sum enters them with a different rounding: the live
// powers there are committed powers plus a drift that the error terms
// bound. DESIGN.md §8 derives the bounds.
func (tr *Tracker) estimate(pmin float64) (e probeEst, ok bool) {
	tau := tr.tau()
	lo, hi := tr.winLo, tr.winHi
	if tr.stale || tr.pend == 0 || !(pmin > 0) || tau <= 0 || tau != tr.cm.prof.Duration() || lo >= tau {
		return e, false
	}
	cm := &tr.cm
	segs := cm.prof.Segs
	bk := tr.buckets
	tr.buildIndex()

	// Running power entering the window, and the exact prefix peak.
	var cur float64
	e.peak = negInf
	i, _ := tr.bucketIdx(lo)
	if lo > 0 {
		j := tr.segAt(lo - 1)
		cur = segs[j].P
		e.peak = tr.idx.maxRange(0, j+1)
	} else if i == len(bk) || bk[i].t > 0 {
		cur += tr.base // Build's implicit breakpoint at 0
	}

	// Sweep the live window [lo, tEnd), summing the free energy exactly
	// the way FreeEnergyUsed weighs one segment.
	var wNew float64
	wMin := posInf
	t0 := lo
	span := func(t1 model.Time) {
		if t1 <= t0 {
			return
		}
		if cur > e.peak {
			e.peak = cur
		}
		if cur < wMin {
			wMin = cur
		}
		v := cur
		if v > pmin {
			v = pmin
		}
		wNew += v * float64(t1-t0)
	}
	for ; i < len(bk) && bk[i].t <= hi && bk[i].t < tau; i++ {
		b := &bk[i]
		span(b.t)
		var bs float64
		if b.t == 0 {
			bs = tr.base
		}
		for _, c := range b.cs {
			bs += c.p
		}
		cur += bs
		t0 = b.t
	}
	tEnd := tau
	if i < len(bk) && bk[i].t < tau {
		tEnd = bk[i].t
	}
	span(tEnd)
	e.end = tEnd

	// The committed free energy over the same window.
	var wOld float64
	j := tr.segAt(lo)
	for ; j < len(segs) && segs[j].T0 < tEnd; j++ {
		v := segs[j].P
		if v > pmin {
			v = pmin
		}
		wOld += v * float64(min(segs[j].T1, tEnd)-max(segs[j].T0, lo))
	}

	// Drift after the window. With o_k/n_k the committed/live powers
	// at the k-th later breakpoint and d_k = n_k - o_k, both sums add
	// the same bucket delta and round once, so
	// |d_k| <= |d_0| + u·Σ(|o_i| + |n_i|) <= |d_0| + u·K·(2A + D),
	// where A bounds |o| and D = max|d_k|; hence
	// D <= (|d_0| + 2u·K·A) / (1 - u·K), doubled for safety.
	a := max(math.Abs(cm.maxP), math.Abs(cm.minP))
	e.peakAfter = negInf
	var drift float64
	if tEnd < tau {
		ja := j
		if ja > 0 && segs[ja-1].T1 > tEnd {
			ja--
		}
		jb := ja // the committed segment holding tEnd-1
		if segs[jb].T0 > tEnd-1 {
			jb--
		}
		uk := unitRoundoff * float64(len(bk))
		drift = 2 * (math.Abs(cur-segs[jb].P) + 2*uk*a) / (1 - uk)
		e.peakAfter = tr.idx.maxRange(ja, len(segs))
		e.peakAfterErr = drift
	}

	// Free-energy error: each of the four float sums (committed,
	// live, and both windows; at most m terms of magnitude <= V each)
	// is within γ_m·V·tau of its real sum, the real sums differ only
	// after the window, by at most drift·tau, and the two additions
	// below round once each. Doubled, plus 16u·V·tau for the rounding
	// of the bound and of certainReject's comparison.
	v := max(pmin, a+drift, math.Abs(e.peak), math.Abs(wMin))
	m := float64(max(len(segs), len(bk)) + 2)
	gm := m * unitRoundoff / (1 - m*unitRoundoff)
	ft := float64(tau)
	e.free = (cm.freeEnergy(pmin) - wOld) + wNew
	e.freeErr = 2*(4*gm*v+drift)*ft + 16*unitRoundoff*v*ft
	return e, true
}

// freeEnergy returns the snapshot's FreeEnergyUsed(pmin), cached per
// pmin.
func (s *snapshot) freeEnergy(pmin float64) float64 {
	if !s.freeOK || s.freePmin != pmin {
		s.freeE, s.freePmin, s.freeOK = s.prof.FreeEnergyUsed(pmin), pmin, true
	}
	return s.freeE
}
