package main

import (
	"context"
	"path/filepath"
	"time"

	mis "repro"
	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/shard"
)

// probeJob is the job ID of spans recorded by layer probes.
const probeJob = -1

// probeReps is how many times each layer probe repeats; metrics are medians.
const probeReps = 5

// sink keeps the scan consumers' work observable.
var sink uint64

// consume reads every neighbour of every record, so a bare scan pays for
// delivering the data as an algorithm would.
func consume(recs []gio.Record) error {
	var s uint64
	for _, r := range recs {
		s += uint64(r.ID)
		for _, nb := range r.Neighbors {
			s += uint64(nb)
		}
	}
	sink += s
	return nil
}

// solverCall runs one Solver entry point in a span named name and records
// on the span the physical scans it made on f. With a tracer, the swap
// rounds reported through rc become child spans.
func solverCall(tr *tracer, rc *roundClock, name string, parent, job int, f *mis.File, fn func() error) error {
	if tr == nil {
		return fn()
	}
	id := tr.begin(name, parent, job)
	before := f.Stats().PhysicalScans
	rc.arm(tr, id, job)
	err := fn()
	tr.end(id)
	tr.setScans(id, f.Stats().PhysicalScans-before)
	return err
}

// roundClock turns OnRound events into core.round spans: a round runs from
// the previous event (or the call's start) to its own event.
type roundClock struct {
	tr          *tracer
	parent, job int
	last        time.Time
}

func (rc *roundClock) arm(tr *tracer, parent, job int) {
	if rc != nil {
		rc.tr, rc.parent, rc.job, rc.last = tr, parent, job, time.Now()
	}
}

func (rc *roundClock) onRound(mis.RoundEvent) {
	if rc.tr == nil {
		return
	}
	now := time.Now()
	rc.tr.add("core.round", rc.parent, rc.job, rc.last, now)
	rc.last = now
}

// solverOptions returns a workload's Solver options, with the round clock
// wired in when tracing.
func solverOptions(workers, stop int, rc *roundClock) []mis.SolverOption {
	opts := []mis.SolverOption{mis.Workers(workers), mis.EarlyStop(stop)}
	if rc != nil {
		opts = append(opts, mis.OnRound(rc.onRound))
	}
	return opts
}

// probeTarget is the graph a workload's layer probes run on.
type probeTarget struct {
	path     string // the workload's main adjacency file
	manifest string // a shard split of path, or "" to make one in scratch
	scratch  string
	workers  int    // the workload's scan workers
	stop     int    // the workload's swap early-stop round
	mainCall string // the Solver call whose CPU per scan is reported
}

// probeLayers runs the layer probes of the traced run on t and fills the
// scan, core and open metrics into rep. Each probe's spans join the job
// spans of the same name, so a core metric is the median over both.
func probeLayers(ctx context.Context, tr *tracer, t probeTarget, rep *report) error {
	layer := rep.layer
	for range probeReps {
		err := tr.do("mis.open", 0, probeJob, func() error {
			f, err := mis.OpenGraph(t.path)
			if err == nil {
				err = f.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		g, err := gio.Open(t.path, 0, nil)
		if err != nil {
			return err
		}
		err = tr.do("gio.digest", 0, probeJob, func() error {
			_, err := g.ContentDigest(ctx)
			return err
		})
		g.Close()
		if err != nil {
			return err
		}
	}

	counters := &gio.Counters{}
	g, err := gio.Open(t.path, 0, counters)
	if err != nil {
		return err
	}
	defer g.Close()
	for range probeReps {
		if err := tr.do("gio.scan", 0, probeJob, func() error { return g.ForEachBatch(consume) }); err != nil {
			return err
		}
	}
	layer["gio.bytes_per_scan"] = float64(counters.Snapshot().BytesRead) / probeReps
	for range probeReps {
		if err := tr.do("exec.scan", 0, probeJob, func() error { return exec.New(g, 2).ForEachBatch(consume) }); err != nil {
			return err
		}
	}

	manifest := t.manifest
	if manifest == "" {
		manifest = filepath.Join(t.scratch, "shards")
		if _, err := shard.SplitFile(ctx, t.path, manifest, shard.SplitOptions{Shards: 4}); err != nil {
			return err
		}
	}
	for range probeReps {
		var set *shard.Set
		err := tr.do("shard.open", 0, probeJob, func() (err error) {
			set, err = shard.Open(manifest, shard.Options{})
			return err
		})
		if err != nil {
			return err
		}
		err = tr.do("shard.scan", 0, probeJob, func() error { return set.Source(nil, 2).ForEachBatch(consume) })
		set.Close()
		if err != nil {
			return err
		}
	}

	f, err := mis.Open(t.path, mis.WithWorkers(t.workers))
	if err != nil {
		return err
	}
	defer f.Close()
	rc := &roundClock{}
	s := mis.NewSolver(f, solverOptions(t.workers, t.stop, rc)...)
	var main *mis.Result
	for range probeReps {
		var g, r *mis.Result
		calls := []struct {
			name string
			fn   func() error
		}{
			{"core.greedy", func() (err error) { g, err = s.Greedy(ctx); return err }},
			{"core.onek", func() (err error) { r, err = s.OneKSwap(ctx, g); return err }},
			{"core.twok", func() (err error) { r, err = s.TwoKSwap(ctx, g); return err }},
			{"core.bound", func() (err error) { _, err = s.UpperBound(ctx); return err }},
			{"core.verify", func() error { return s.Verify(ctx, g) }},
		}
		for _, c := range calls {
			if err := solverCall(tr, rc, c.name, 0, probeJob, f, c.fn); err != nil {
				return err
			}
			switch {
			case c.name == t.mainCall && c.name == "core.greedy":
				main = g
			case c.name == t.mainCall && r != nil:
				main = r
			}
		}
	}

	layer["mis.open_ms"] = tr.medianMS("mis.open")
	layer["gio.digest_ms"] = tr.medianMS("gio.digest")
	scan := tr.medianMS("gio.scan")
	layer["gio.scan_ms"] = scan
	layer["exec.scan_ms"] = tr.medianMS("exec.scan")
	layer["exec.speedup"] = scan / layer["exec.scan_ms"]
	layer["shard.open_ms"] = tr.medianMS("shard.open")
	layer["shard.scan_ms"] = tr.medianMS("shard.scan")
	layer["shard.speedup"] = scan / layer["shard.scan_ms"]
	for _, n := range []string{"greedy", "onek", "twok", "bound", "verify"} {
		layer["core."+n+"_ms"] = tr.medianMS("core." + n)
		rep.detail["cpu_ms_per_scan."+n] = tr.cpuPerScanMS("core."+n, scan)
	}
	layer["core.round_ms"] = tr.medianMS("core.round")
	layer["core.cpu_ms_per_scan"] = tr.cpuPerScanMS(t.mainCall, scan)
	layer["semiext.memory_bytes"] = float64(main.MemoryBytes)
	layer["semiext.sc_high_water"] = float64(main.SCHighWater)
	layer["pipeline.carried_round_share"] = carriedRoundShare(main)
	return nil
}

// carriedRoundShare is the share of r's swap rounds that carried at least
// one logical scan across rounds (0 for a result without rounds).
func carriedRoundShare(r *mis.Result) float64 {
	if len(r.RoundIO) == 0 {
		return 0
	}
	n := 0
	for _, io := range r.RoundIO {
		if io.CarriedScans > 0 {
			n++
		}
	}
	return float64(n) / float64(len(r.RoundIO))
}

// setPipeline fills the per-job pipeline metrics from the I/O of n jobs.
func setPipeline(layer map[string]float64, io mis.IOStats, n int) {
	layer["pipeline.logical_scans_per_job"] = float64(io.Scans) / float64(n)
	layer["pipeline.carried_scans_per_job"] = float64(io.CarriedScans) / float64(n)
	if io.PhysicalScans > 0 {
		layer["pipeline.fusion_ratio"] = float64(io.Scans) / float64(io.PhysicalScans)
	}
}

// addIO returns a + b.
func addIO(a, b mis.IOStats) mis.IOStats {
	s := gio.Stats(a)
	s.Add(gio.Stats(b))
	return mis.IOStats(s)
}

// subIO returns a - b.
func subIO(a, b mis.IOStats) mis.IOStats { return mis.IOStats(gio.Stats(a).Sub(gio.Stats(b))) }
