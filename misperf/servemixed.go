package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	mis "repro"
	"repro/internal/server"
)

// serveMixed drives an in-process misd server over a unix socket with two
// client streams: an open loop of cached solves (hits, which touch only the
// server and its result cache) and one closed-loop client of uncached,
// verified one-k-swap solves (executes, which pass admission and scan).
// Each class is timed on its own, so no percentile falls between them, and
// every cache outcome is fixed by the script: all nine hit keys are warmed
// in set-up and executes bypass the cache.
type serveMixed struct {
	cfg    config
	paths  map[string]string
	reg    *mis.Registry
	srv    *server.Server
	served chan error
	client *http.Client
	warm   map[string]int // cached key → set size
}

const (
	serveWorkers = 1
	// serveStop caps the executes at two rounds, which every seed's
	// Youtube stand-in reaches, so their scan count is the same for all.
	serveStop  = 2
	serveGraph = "youtube"
	// hitsPerSecond is the open-loop rate of cached solves.
	hitsPerSecond = 100
)

var serveAlgorithms = []string{"greedy", "one-k-swap", "two-k-swap"}

func hitKey(graph, alg string) string { return graph + "/" + alg }

func (w *serveMixed) setup(ctx context.Context, dir string) error {
	w.paths = map[string]string{}
	for _, s := range serveStandIns {
		p, err := s.write(dir, w.cfg.seed)
		if err != nil {
			return err
		}
		w.paths[s.name] = p
	}
	var err error
	if w.reg, err = mis.OpenRegistry(ctx, w.paths, mis.RegistryWorkers(serveWorkers)); err != nil {
		return err
	}
	w.srv = server.New(server.Config{Registry: w.reg, Workers: serveWorkers, MaxSolves: 2, CacheEntries: 64})
	sock := filepath.Join(dir, "misd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
		MaxIdleConnsPerHost: 16,
	}}

	w.warm = map[string]int{}
	for _, s := range serveStandIns {
		for _, alg := range serveAlgorithms {
			resp, code, err := w.solve(ctx, server.SolveRequest{Graph: s.name, Algorithm: alg})
			if err != nil {
				return err
			}
			if code != http.StatusOK || resp.Cache != "miss" {
				return fmt.Errorf("warming %s %s: HTTP %d, cache %q", s.name, alg, code, resp.Cache)
			}
			w.warm[hitKey(s.name, alg)] = resp.Size
		}
	}
	return nil
}

func (w *serveMixed) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.served != nil {
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.reg != nil {
		w.reg.Close()
	}
}

func (w *serveMixed) solve(ctx context.Context, req server.SolveRequest) (*server.SolveResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://misd/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out server.SolveResponse
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&out)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return &out, resp.StatusCode, err
}

func (w *serveMixed) status(ctx context.Context) (server.CacheStats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://misd/v1/status", nil)
	if err != nil {
		return server.CacheStats{}, err
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return server.CacheStats{}, err
	}
	defer resp.Body.Close()
	var st server.StatusResponse
	if resp.StatusCode != http.StatusOK {
		return server.CacheStats{}, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Cache, err
}

// fileIO snapshots the lifetime I/O of every registered graph.
func (w *serveMixed) fileIO() map[string]mis.IOStats {
	out := map[string]mis.IOStats{}
	for _, name := range w.reg.Names() {
		e, _ := w.reg.Get(name)
		f, release := e.Acquire()
		out[name] = f.Stats()
		release()
	}
	return out
}

var execRequest = server.SolveRequest{Graph: serveGraph, Algorithm: "one-k-swap", EarlyStop: serveStop, NoCache: true, Verify: true}

// hitOrder lists n cached keys: every block of nine is a seeded shuffle of
// all nine, so each key is hit and the sequence repeats per seed.
func (w *serveMixed) hitOrder(n int) []server.SolveRequest {
	var keys []server.SolveRequest
	for _, s := range serveStandIns {
		for _, alg := range serveAlgorithms {
			keys = append(keys, server.SolveRequest{Graph: s.name, Algorithm: alg})
		}
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	out := make([]server.SolveRequest, 0, n)
	for len(out) < n {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out = append(out, keys[:min(len(keys), n-len(out))]...)
	}
	return out
}

func (w *serveMixed) run(ctx context.Context, tr *tracer) (*report, error) {
	// One untimed execute is the reference every timed one must match.
	ref, code, err := w.solve(ctx, execRequest)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK || !ref.Verified {
		return nil, fmt.Errorf("reference execute: HTTP %d, verified %v", code, ref.Verified)
	}
	cache0, err := w.status(ctx)
	if err != nil {
		return nil, err
	}
	io0 := w.fileIO()

	rep := newReport(1)
	nExec := w.cfg.jobCount(75*time.Millisecond, 40)
	hits := w.hitOrder(w.cfg.seconds * hitsPerSecond)
	var (
		mu                 sync.Mutex // guards the hit results below
		hitMS, lateMS      []float64
		hitFailed, refused int
		wg                 sync.WaitGroup
		execRefused        int
		overheadMS         []float64
		execIO             mis.IOStats
	)
	hit := func(i int, due time.Time) {
		defer wg.Done()
		jt := traceEveryOther(tr, i)
		span := jt.begin("server.hit", 0, i)
		sent := time.Now()
		resp, code, err := w.solve(ctx, hits[i])
		jt.end(span)
		done := time.Now()
		mu.Lock()
		defer mu.Unlock()
		hitMS = append(hitMS, ms(done.Sub(due)))
		lateMS = append(lateMS, ms(sent.Sub(due)))
		key := hitKey(hits[i].Graph, hits[i].Algorithm)
		switch {
		case err != nil:
			hitFailed++
			warnf("hit %d: %v", i, err)
		case code != http.StatusOK:
			hitFailed++
			if code == http.StatusTooManyRequests {
				refused++
			}
			warnf("hit %d: HTTP %d", i, code)
		case resp.Cache != "hit" || resp.Size != w.warm[key]:
			hitFailed++
			warnf("hit %d on %s: cache %q size %d, want hit size %d", i, key, resp.Cache, resp.Size, w.warm[key])
		}
	}

	start := time.Now()
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		period := time.Second / hitsPerSecond
		for i := range hits {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
			wg.Add(1)
			go hit(i, due)
		}
	}()

	for i := range nExec {
		jt := traceEveryOther(tr, i)
		span := jt.begin("server.exec", 0, i)
		t0 := time.Now()
		resp, code, err := w.solve(ctx, execRequest)
		d := time.Since(t0)
		jt.end(span)
		rep.addJob(jt, tr, d)
		switch {
		case err != nil:
			rep.fail(1, "execute %d: %v", i, err)
		case code != http.StatusOK:
			if code == http.StatusTooManyRequests {
				execRefused++
			}
			rep.fail(1, "execute %d: HTTP %d", i, code)
		case resp.Cache != "miss" || !resp.Verified || resp.Size != ref.Size || resp.IO != ref.IO:
			rep.fail(1, "execute %d: cache %q verified %v size %d io %+v, reference size %d io %+v",
				i, resp.Cache, resp.Verified, resp.Size, resp.IO, ref.Size, ref.IO)
		default:
			if jt != nil {
				overheadMS = append(overheadMS, ms(d)-float64(resp.ElapsedMS))
			}
			execIO = addIO(execIO, mis.IOStats{Scans: resp.IO.Scans, PhysicalScans: resp.IO.PhysicalScans, CarriedScans: resp.IO.CarriedScans})
		}
	}
	rep.wall = time.Since(start)
	<-genDone
	wg.Wait()

	cache1, err := w.status(ctx)
	if err != nil {
		return nil, err
	}
	io1 := w.fileIO()
	rep.attempted = nExec + len(hits)
	rep.failed += hitFailed
	// The script fixes every cache outcome: each hit is a hit, and nothing
	// else touches the cache.
	want := server.CacheStats{Entries: cache0.Entries, Hits: cache0.Hits + uint64(len(hits)), Misses: cache0.Misses, Shared: cache0.Shared, Evictions: cache0.Evictions}
	if cache1 != want {
		rep.fail(max(1, absDiff(cache1.Hits, want.Hits)), "cache counts %+v, script predicts %+v", cache1, want)
	}
	for name, before := range io0 {
		if name != serveGraph && io1[name] != before {
			rep.fail(1, "cached graph %s was scanned during the timed phase", name)
		}
	}
	scanned := subIO(io1[serveGraph], io0[serveGraph])
	rep.isSize = ref.Size
	rep.physScansPerJob = float64(scanned.PhysicalScans) / float64(nExec)
	rep.bytesReadPerJob = float64(scanned.BytesRead) / float64(nExec)

	hitTail, _, _, _ := tail(hitMS, tailSamples)
	lateTail, _, _, _ := tail(lateMS, tailSamples)
	rep.detail["hit_p50_ms"] = median(hitMS)
	rep.detail["hit_tail_ms"] = hitTail
	rep.detail["hits"] = float64(len(hits))
	rep.detail["gen_late_tail_ms"] = lateTail

	done := cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses + cache1.Shared - cache0.Shared
	if done > 0 {
		rep.layer["cache.hit_share"] = float64(cache1.Hits-cache0.Hits) / float64(done)
	}
	rep.layer["cache.shared"] = float64(cache1.Shared - cache0.Shared)
	rep.layer["cache.evictions"] = float64(cache1.Evictions - cache0.Evictions)
	rep.layer["server.hit_p50_ms"] = median(hitMS)
	rep.layer["server.exec_overhead_ms"] = median(overheadMS)
	rep.layer["server.refused_share"] = float64(refused+execRefused) / float64(rep.attempted)
	rep.layer["server.gen_late_ms"] = lateTail
	setPipeline(rep.layer, execIO, nExec)
	return rep, nil
}

func absDiff(a, b uint64) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

func (w *serveMixed) probe(ctx context.Context, tr *tracer, rep *report, scratch string) error {
	// A cached solve through the handler alone, with no socket or client.
	body, err := json.Marshal(server.SolveRequest{Graph: serveGraph, Algorithm: "greedy"})
	if err != nil {
		return err
	}
	h := w.srv.Handler()
	var us []float64
	for range 200 {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		if rec.Code != http.StatusOK {
			return errors.New("cached solve through the handler: HTTP " + fmt.Sprint(rec.Code))
		}
	}
	rep.layer["server.hit_handler_us"] = median(us)
	return probeLayers(ctx, tr, probeTarget{
		path: w.paths[serveGraph], scratch: scratch, workers: serveWorkers, stop: serveStop, mainCall: "core.onek",
	}, rep)
}
