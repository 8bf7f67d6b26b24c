package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/web"
)

// tier is the serving tier under test.
type tier struct {
	shards  []*web.Server
	stores  []*store.Store
	timed   []*timedStore // nil when untraced
	servers []*http.Server
	rt      *router.Router
	url     string // router base URL
	client  *http.Client
	wg      sync.WaitGroup
	dir     string
}

// startTier boots two shards and a router configured like cmd/serve
// and cmd/router with their default flags.
func startTier(dir string, tr *tracer, traced bool) (*tier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &tier{dir: dir}
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard-%d.log", i)), store.Options{})
		if err != nil {
			t.close()
			return nil, err
		}
		t.stores = append(t.stores, st)
		var bs service.BlobStore = st
		if traced {
			ts := &timedStore{Store: st}
			t.timed = append(t.timed, ts)
			bs = ts
		}
		svc := service.New(service.Config{Store: bs, DefaultTimeout: 30 * time.Second})
		srv := web.NewServerWith(sched.Options{}, svc)
		srv.SetShardID(strconv.Itoa(i))
		srv.SetSpecStore(st)
		t.shards = append(t.shards, srv)
		u, err := t.serve(shardHandler(srv.Handler(), tr))
		if err != nil {
			t.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	rt, err := router.New(urls, router.Config{Client: &http.Client{Timeout: 60 * time.Second}, ProbeInterval: time.Second})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rt = rt
	if t.url, err = t.serve(rt.Handler()); err != nil {
		t.close()
		return nil, err
	}
	n := nproc()
	t.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true,
	}}
	return t, nil
}

func (t *tier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	t.servers = append(t.servers, hs)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router, the listeners and the shards' in-flight
// work, closes the stores and removes their files.
func (t *tier) close() {
	if t == nil {
		return
	}
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.rt != nil {
		t.rt.Close()
	}
	for _, hs := range t.servers {
		hs.Close()
	}
	t.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range t.shards {
		s.Service().Drain(ctx) //nolint:errcheck // best effort before closing the stores
	}
	for _, st := range t.stores {
		st.Close()
	}
	os.RemoveAll(t.dir)
}

// register uploads every pool problem through the router, which
// replicates each registration to its rank-next shard.
func (t *tier) register(in *serveInputs) error {
	return forEach(len(in.specs), nproc(), func(i int) error {
		resp, err := t.client.Post(t.url+"/problems", "text/plain", strings.NewReader(in.specs[i]))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("register %s: status %d", in.pool[i].Name, resp.StatusCode)
		}
		return nil
	})
}

// warmResult is what warm-up served: the mean energy cost and finish
// of the schedules, and the refused problems, kept for the oracle
// check.
type warmResult struct {
	ec, fin float64
	refused []served
}

// warm schedules every pool problem once through the router's batch
// path, filling each shard's LRU and store.
func (t *tier) warm(in *serveInputs) (warmResult, error) {
	const per = 256 // the batch endpoint's item limit
	n := (len(in.pool) + per - 1) / per
	items := make([]web.BatchItemResult, len(in.pool))
	err := forEach(n, nproc(), func(b int) error {
		lo, hi := b*per, min((b+1)*per, len(in.pool))
		var doc web.BatchRequest
		for i := lo; i < hi; i++ {
			doc.Items = append(doc.Items, web.BatchItem{Problem: in.pool[i].Name})
		}
		body, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		var out web.BatchResponse
		if err := t.postJSON("/schedule/batch", body, &out); err != nil {
			return err
		}
		if len(out.Items) != hi-lo {
			return fmt.Errorf("warm: %d items back for %d sent", len(out.Items), hi-lo)
		}
		copy(items[lo:hi], out.Items)
		return nil
	})
	if err != nil {
		return warmResult{}, err
	}
	var w warmResult
	var ecs, fins []float64
	for i, it := range items {
		switch it.Status {
		case http.StatusOK:
			ecs, fins = append(ecs, it.EnergyCost), append(fins, float64(it.Finish))
		case http.StatusUnprocessableEntity:
			body, err := json.Marshal(map[string]string{"error": it.Error})
			if err != nil {
				return w, err
			}
			w.refused = append(w.refused, served{req: plannedReq{kind: kindHit, ranks: []int32{int32(i)}}, status: it.Status, body: body})
		default:
			return w, fmt.Errorf("warm %s: status %d: %s", in.pool[i].Name, it.Status, it.Error)
		}
	}
	w.ec, w.fin = mean(ecs), mean(fins)
	return w, nil
}

func (t *tier) postJSON(path string, body []byte, out any) error {
	resp, err := t.client.Post(t.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// forEach runs fn(0..n-1) on workers goroutines and returns the first
// error.
func forEach(n, workers int, fn func(int) error) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// shardHandler records a span around each /schedule and
// /schedule/batch call into a shard while the tracer is on, parented
// to the client request whose id crossed the router.
func shardHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.active() {
			h.ServeHTTP(w, r)
			return
		}
		var name string
		var rid int64
		switch r.URL.Path {
		case "/schedule":
			name = "web.schedule"
			rid, _ = strconv.ParseInt(r.URL.Query().Get(ridParam), 10, 64)
		case "/schedule/batch":
			name = "web.batch"
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var doc struct {
				Items []struct {
					Rid int64 `json:"bench_rid"`
				} `json:"items"`
			}
			if json.Unmarshal(body, &doc) == nil && len(doc.Items) > 0 {
				rid = doc.Items[0].Rid
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		default:
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin(name, rid, rid)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// timedStore times the L2 store calls the service makes.
type timedStore struct {
	*store.Store
	getNS, putNS, gets, puts, bytes atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := s.Store.Get(key)
	s.getNS.Add(int64(time.Since(start)))
	s.gets.Add(1)
	return v, ok
}

func (s *timedStore) Put(key string, val []byte) error {
	start := time.Now()
	err := s.Store.Put(key, val)
	s.putNS.Add(int64(time.Since(start)))
	s.puts.Add(1)
	s.bytes.Add(int64(len(key) + len(val)))
	return err
}

// storeCounters sums the timed stores' counters.
type storeCounters struct{ getNS, putNS, gets, puts, bytes int64 }

func (a storeCounters) sub(b storeCounters) storeCounters {
	return storeCounters{a.getNS - b.getNS, a.putNS - b.putNS, a.gets - b.gets, a.puts - b.puts, a.bytes - b.bytes}
}

func (c storeCounters) set(o *outcome) {
	o.set("store.get_us", ratio(float64(c.getNS)/1e3, float64(c.gets)), "us")
	o.set("store.put_us", ratio(float64(c.putNS)/1e3, float64(c.puts)), "us")
	o.set("store.gets", float64(c.gets), "count")
	o.set("store.puts", float64(c.puts), "count")
	o.set("store.bytes_written", float64(c.bytes), "bytes")
}

// svcCounters sums service.Stats counters over services.
type svcCounters struct{ hits, hitsL2, misses, joins, shed, computeNS int64 }

func (a *svcCounters) add(st service.Stats) {
	a.hits += st.Hits
	a.hitsL2 += st.HitsL2
	a.misses += st.Misses
	a.joins += st.Joins
	a.shed += st.Shed
	for _, ns := range st.ComputeNS {
		a.computeNS += ns
	}
}

func (a svcCounters) sub(b svcCounters) svcCounters {
	return svcCounters{a.hits - b.hits, a.hitsL2 - b.hitsL2, a.misses - b.misses, a.joins - b.joins, a.shed - b.shed, a.computeNS - b.computeNS}
}

func (c svcCounters) served() int64 { return c.hits + c.hitsL2 + c.misses + c.joins }

func (c svcCounters) set(o *outcome) {
	served := float64(c.served())
	o.set("service.hit_ratio", ratio(float64(c.hits+c.hitsL2), served), "ratio")
	o.set("service.l2_share", ratio(float64(c.hitsL2), served), "ratio")
	o.set("service.compute_ms_per_miss", ratio(float64(c.computeNS)/1e6, float64(c.misses)), "ms")
	o.set("service.joins", float64(c.joins), "count")
	o.set("service.shed", float64(c.shed), "count")
	o.note("service: %d served (base of the ratios) = %d L1 hits + %d L2 hits + %d misses + %d joins; %d shed",
		c.served(), c.hits, c.hitsL2, c.misses, c.joins, c.shed)
}

type tierCounters struct {
	svc             svcCounters
	store           storeCounters
	retries, hedges int64
}

func (t *tier) counters() tierCounters {
	var c tierCounters
	for _, s := range t.shards {
		c.svc.add(s.Service().Stats())
	}
	for _, ts := range t.timed {
		c.store.getNS += ts.getNS.Load()
		c.store.putNS += ts.putNS.Load()
		c.store.gets += ts.gets.Load()
		c.store.puts += ts.puts.Load()
		c.store.bytes += ts.bytes.Load()
	}
	c.retries, c.hedges = t.rt.Retries(), t.rt.Hedges()
	return c
}
