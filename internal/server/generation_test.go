package server

import (
	"context"
	"errors"
	"testing"
	"time"

	mis "repro"
)

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveVerifyOneGeneration forces a generation flip between a verified
// solve's scan and its verify scan: the verify must still run on the
// generation that was solved, and the response must report that
// generation's digest. With one solve slot, the solve hands its slot to a
// queued solve of another graph, so its verify waits behind that solve's
// gate while the test compacts an edge between two solved vertices into
// the journal graph.
func TestSolveVerifyOneGeneration(t *testing.T) {
	d := newTestDaemon(t, Config{MaxSolves: 1})
	ctx := context.Background()
	e, _ := d.reg.Get("dyn")
	j := e.Journal()
	before, err := j.File().ContentDigest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := mis.NewSolver(j.File()).Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	set := greedy.Vertices()

	solveIn, solveGo := make(chan struct{}), make(chan struct{})
	otherIn, otherGo := make(chan struct{}), make(chan struct{})
	setGate(t, func(graph string) {
		switch graph {
		case "dyn":
			close(solveIn)
			<-solveGo
		case "b":
			close(otherIn)
			<-otherGo
		}
	})

	type outcome struct {
		resp *SolveResponse
		err  error
	}
	solved := make(chan outcome, 1)
	go func() {
		req := solveReq("dyn")
		req.Verify = true
		resp, err := d.srv.solve(ctx, e, req, nil)
		solved <- outcome{resp, err}
	}()
	<-solveIn
	b, _ := d.reg.Get("b")
	other := make(chan error, 1)
	go func() {
		_, err := d.srv.solve(ctx, b, solveReq("b"), nil)
		other <- err
	}()
	waitFor(t, "the second solve to queue", func() bool { return d.srv.adm.stats().Queued == 1 })
	close(solveGo)
	<-otherIn

	// The dyn solve has scanned and now waits for a slot to verify. Flip
	// its graph to a generation on which the solved set is not independent.
	if err := j.InsertEdge(set[0], set[1]); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	close(otherGo)

	o := <-solved
	if o.err != nil {
		t.Fatalf("verified solve across a compaction failed: %v", o.err)
	}
	if !o.resp.Verified {
		t.Error("response not verified")
	}
	if o.resp.Digest != before {
		t.Errorf("response digest %s, want the solved generation's %s", o.resp.Digest, before)
	}
	if err := <-other; err != nil {
		t.Fatalf("other solve: %v", err)
	}
}

// TestDetachedSolveKeepsGeneration: a shared solve keeps scanning the
// generation it started on after the request that started it has gone and
// two compactions have retired that generation. The joining request pinned
// a later generation with the same content (a compaction with nothing to
// fold), so only the computation's own pin keeps the solved file open.
func TestDetachedSolveKeepsGeneration(t *testing.T) {
	d := newTestDaemon(t, Config{})
	bg := context.Background()
	e, _ := d.reg.Get("dyn")
	j := e.Journal()
	before, err := j.File().ContentDigest(bg)
	if err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	setGate(t, func(graph string) {
		if graph == "dyn" {
			close(entered)
			<-release
		}
	})

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := d.srv.solve(ctx, e, solveReq("dyn"), nil)
		first <- err
	}()
	<-entered

	if err := j.Compact(bg); err != nil {
		t.Fatal(err)
	}
	if got, err := j.File().ContentDigest(bg); err != nil || got != before {
		t.Fatalf("compaction with nothing to fold changed the digest: %s, %v", got, err)
	}
	type outcome struct {
		resp *SolveResponse
		err  error
	}
	joined := make(chan outcome, 1)
	go func() {
		resp, err := d.srv.solve(bg, e, solveReq("dyn"), nil)
		joined <- outcome{resp, err}
	}()
	waitFor(t, "the second request to join the flight", func() bool { return d.srv.cache.Stats().Shared == 1 })

	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first request: %v, want context.Canceled", err)
	}
	if err := j.Compact(bg); err != nil {
		t.Fatal(err)
	}
	close(release)

	o := <-joined
	if o.err != nil {
		t.Fatalf("joined request: %v", o.err)
	}
	if o.resp.Cache != "shared" || o.resp.Size != 3 || o.resp.Digest != before {
		t.Fatalf("joined request got %+v", o.resp)
	}
}
