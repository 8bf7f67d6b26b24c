package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/spec"
)

// solve-large inputs.
const (
	solveTasks = 1000
	// refSuite is how many instances open every solve-large run with
	// the same benchkit seeds whatever --seed is. Schedule quality
	// (energy cost, finish) is averaged over them: per-instance energy
	// cost varies by more than a factor of 100 between instances, so a
	// quality figure over fresh instances would differ between seeds by
	// more than any bound a change could be held to.
	refSuite = 16
)

// solveSeed is the benchkit seed of instance i of a solve-large run.
func solveSeed(seed int64, i int) int64 {
	if i < refSuite {
		return int64(i + 1)
	}
	return splitmix(seed, i)
}

func solveInstance(seed int64, i int) *model.Problem {
	return benchkit.Generate(solveTasks, solveSeed(seed, i))
}

// serve-zipf inputs.
const (
	// poolSize exceeds the two shards' default LRU capacity (2 x 1024
	// entries), so the tail of the Zipf draw is served from the L2 store.
	poolSize  = 3072
	poolTasks = 20
	zipfS     = 1.1
	// Shares of the request mix: GETs with a fresh seed= on a uniformly
	// drawn problem (cache misses that compute and write through to the
	// store) and batch POSTs of Zipf-drawn problems (the router's
	// batch-split path); the rest are GETs of Zipf-drawn problems, which
	// hit L1 or, in the tail, the L2 store.
	missShare = 0.10
	// batchShare and batchItems are coverage choices, not taken from
	// any measured traffic: no load the repository ships (loadgen, the
	// smoke and chaos drills) mixes batches with single GETs. The
	// closed-loop request rate moves with them, as a batch is eight
	// requests' work: -19 % from 5 % to 10 % batches, -15 % from 10 %
	// to 20 %; the other end-to-end metrics moved by less than 5 %.
	batchShare = 0.10
	batchItems = 8
	// planLen is the length of the closed-loop request plan; a closed
	// loop that outruns it starts over (miss seeds stay fresh).
	planLen = 1 << 17
)

type reqKind uint8

const (
	kindHit reqKind = iota
	kindMiss
	kindBatch
)

// plannedReq is one request of a serve plan: its kind and the pool
// ranks it names (one for a GET, batchItems for a batch).
type plannedReq struct {
	kind  reqKind
	ranks []int32
}

// serveInputs is everything serve-zipf sends: the problem pool (as the
// spec text registered with the tier) and the closed- and open-loop
// request plans.
type serveInputs struct {
	pool   []*model.Problem
	specs  []string
	closed []plannedReq
	open   []plannedReq
}

func genServeInputs(seed int64, openLen int) *serveInputs {
	in := &serveInputs{}
	for i := 0; len(in.pool) < poolSize; i++ {
		p := benchkit.Generate(poolTasks, splitmix(seed, i))
		p.Name = fmt.Sprintf("zipf-%05d", len(in.pool))
		text := spec.Format(p)
		q, err := spec.ParseString(text)
		if err != nil || !feasible(q) {
			continue
		}
		in.pool = append(in.pool, q)
		in.specs = append(in.specs, text)
	}
	in.closed = genPlan(splitmix(seed, -1), planLen)
	in.open = genPlan(splitmix(seed, -2), openLen)
	return in
}

// feasible reports whether a schedule of generated problem p exists,
// from p alone and not from the scheduler under test. A task that
// draws more than Pmax on its own can never run (one or two problems
// in a pool). Otherwise the serial schedule, one task after another in
// index order, is one: the generator's constraints point forward, so
// every minimum separation holds; its length (at most 20 x 9 time
// units) is below every window's maximum (at least 460); and one task
// at a time stays under Pmax. The scheduler is a heuristic and fails
// on about one such problem per pool; those stay in, and the tier's
// refusal of them counts against ok_share.
func feasible(p *model.Problem) bool {
	for _, t := range p.Tasks {
		if p.BasePower+t.Power > p.Pmax {
			return false
		}
	}
	return true
}

func genPlan(seed int64, n int) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, poolSize-1)
	plan := make([]plannedReq, n)
	for i := range plan {
		u := rng.Float64()
		k, items := kindHit, 1
		switch {
		case u < batchShare:
			k, items = kindBatch, batchItems
		case u < batchShare+missShare:
			k = kindMiss
		}
		ranks := make([]int32, items)
		for j := range ranks {
			ranks[j] = int32(z.Uint64())
		}
		if k == kindMiss {
			// A miss costs a full compute of its problem, and compute
			// cost varies from problem to problem; drawing misses from
			// the Zipf head would make the run's cost hinge on the few
			// problems the seed put there.
			ranks[0] = int32(rng.Intn(poolSize))
		}
		plan[i] = plannedReq{kind: k, ranks: ranks}
	}
	return plan
}

// encode renders the inputs as bytes, for checking that a seed always
// generates the same ones.
func (in *serveInputs) encode() []byte {
	var b bytes.Buffer
	for _, s := range in.specs {
		b.WriteString(s)
		b.WriteByte(0)
	}
	for _, plan := range [][]plannedReq{in.closed, in.open} {
		for _, r := range plan {
			b.WriteByte(byte(r.kind))
			binary.Write(&b, binary.LittleEndian, r.ranks)
		}
		b.WriteByte(0xff)
	}
	return b.Bytes()
}
