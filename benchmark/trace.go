package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer, or one that is off, records nothing, so the same code path
// serves untraced and traced phases.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its id, or 0 when not recording. A
// req of 0 starts a new request whose id is the span's own.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if !t.active() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id (0 is ignored) and returns its duration.
func (t *tracer) end(id int64) time.Duration {
	if id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus time covered by children
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// overlapping children (concurrent sub-requests) are counted once.
func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		d := s.End - s.Start
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, kids[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// reportLayers adds the per-name span table to the report.
func reportLayers(o *outcome, lts map[string]layerTime) {
	names := make([]string, 0, len(lts))
	for n := range lts {
		names = append(names, n)
	}
	sort.Strings(names)
	o.note("%-22s %9s %14s %14s %14s", "span", "count", "total", "self", "self/call")
	for _, n := range names {
		lt := lts[n]
		o.note("%-22s %9d %14v %14v %14v", n, lt.Count, lt.Total.Round(time.Microsecond),
			lt.Self.Round(time.Microsecond), (lt.Self / time.Duration(max(lt.Count, 1))).Round(100*time.Nanosecond))
	}
}

// finishTrace writes the spans next to the run's other output and adds
// the span table to the report.
func finishTrace(o *outcome, tr *tracer, e env, workload string) {
	path := filepath.Join(filepath.Dir(e.workdir), fmt.Sprintf("trace-%s-seed%d.jsonl", workload, e.seed))
	if err := tr.write(path); err != nil {
		o.note("could not write spans: %v", err)
	} else {
		o.note("spans written to %s", path)
	}
	reportLayers(o, selfTimes(tr.snapshot()))
}
