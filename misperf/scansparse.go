package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	mis "repro"
	"repro/internal/shard"
)

// scanSparse runs the three one-scan calls — Greedy, UpperBound, Verify —
// on a sparse graph twice per job: on the single file through the parallel
// partitioned executor, then on a 4-shard manifest of the same graph
// through the per-shard executor. The job is scan-bound (decode and merge)
// with no swap rounds, so a swap or carry change should leave it alone.
type scanSparse struct {
	cfg      config
	path     string
	manifest string
	single   *mis.File
	sharded  *mis.File
}

const (
	scanSparseWorkers = 2
	scanSparseShards  = 4
	scanSparseStop    = 2 // used by the traced run's swap probes only
)

func (w *scanSparse) setup(ctx context.Context, dir string) error {
	var err error
	if w.path, err = citeseerx10.write(dir, w.cfg.seed); err != nil {
		return err
	}
	w.manifest = filepath.Join(dir, "shards")
	if _, err := shard.SplitFile(ctx, w.path, w.manifest, shard.SplitOptions{Shards: scanSparseShards}); err != nil {
		return err
	}
	if w.single, err = mis.Open(w.path, mis.WithWorkers(scanSparseWorkers)); err != nil {
		return err
	}
	w.sharded, err = mis.OpenSharded(w.manifest, mis.WithWorkers(scanSparseWorkers))
	return err
}

func (w *scanSparse) close() {
	for _, f := range []*mis.File{w.single, w.sharded} {
		if f != nil {
			f.Close()
		}
	}
}

// half is one file's share of a job.
type half struct {
	greedy *mis.Result
	bound  uint64
	io     mis.IOStats
}

func (w *scanSparse) half(ctx context.Context, tr *tracer, parent, id int, name string, f *mis.File) (half, error) {
	s := mis.NewSolver(f, mis.Workers(scanSparseWorkers))
	before := f.Stats()
	span := tr.begin(name, parent, id)
	defer tr.end(span)
	var h half
	err := solverCall(tr, nil, "core.greedy", span, id, f, func() (err error) { h.greedy, err = s.Greedy(ctx); return err })
	if err == nil {
		err = solverCall(tr, nil, "core.bound", span, id, f, func() (err error) { h.bound, err = s.UpperBound(ctx); return err })
	}
	if err == nil {
		err = solverCall(tr, nil, "core.verify", span, id, f, func() error { return s.Verify(ctx, h.greedy) })
	}
	h.io = subIO(f.Stats(), before)
	return h, err
}

// job runs both halves.
func (w *scanSparse) job(ctx context.Context, tr *tracer, id int) (single, sharded half, err error) {
	span := tr.begin("job", 0, id)
	defer tr.end(span)
	if single, err = w.half(ctx, tr, span, id, "exec.job", w.single); err != nil {
		return
	}
	sharded, err = w.half(ctx, tr, span, id, "shard.job", w.sharded)
	return
}

// agree checks that the single-file and manifest halves of a job found the
// same set and bound.
func agree(single, sharded half) error {
	if single.greedy.Size != sharded.greedy.Size || setHash(single.greedy) != setHash(sharded.greedy) || single.bound != sharded.bound {
		return fmt.Errorf("single file (size %d, bound %d) and manifest (size %d, bound %d) disagree",
			single.greedy.Size, single.bound, sharded.greedy.Size, sharded.bound)
	}
	return nil
}

func (w *scanSparse) run(ctx context.Context, tr *tracer) (*report, error) {
	// The untimed first job warms both files and is the reference; its
	// Verify calls checked the set it found.
	refS, refM, err := w.job(ctx, nil, 0)
	if err == nil {
		err = agree(refS, refM)
	}
	if err != nil {
		return nil, err
	}
	refHash := setHash(refS.greedy)

	rep := newReport(1)
	n := w.cfg.jobCount(200*time.Millisecond, 20)
	var total mis.IOStats
	start := time.Now()
	for i := range n {
		jt := traceEveryOther(tr, i)
		t0 := time.Now()
		s, m, err := w.job(ctx, jt, i)
		rep.addJob(jt, tr, time.Since(t0))
		total = addIO(total, addIO(s.io, m.io))
		switch {
		case err != nil:
			rep.fail(1, "job %d: %v", i, err)
		case agree(s, m) != nil:
			rep.fail(1, "job %d: %v", i, agree(s, m))
		case setHash(s.greedy) != refHash || s.bound != refS.bound || s.io != refS.io || m.io != refM.io:
			rep.fail(1, "job %d: result or I/O differs from the reference (io %+v / %+v, reference %+v / %+v)", i, s.io, m.io, refS.io, refM.io)
		}
	}
	rep.wall = time.Since(start)
	rep.attempted = n
	rep.isSize = refS.greedy.Size
	rep.physScansPerJob = float64(total.PhysicalScans) / float64(n)
	rep.bytesReadPerJob = float64(total.BytesRead) / float64(n)
	setPipeline(rep.layer, total, n)
	rep.detail["upper_bound"] = float64(refS.bound)
	return rep, nil
}

func (w *scanSparse) probe(ctx context.Context, tr *tracer, rep *report, scratch string) error {
	for _, name := range []string{"exec.job", "shard.job"} {
		rep.detail[name+"_p50_ms"] = tr.medianMS(name)
	}
	return probeLayers(ctx, tr, probeTarget{
		path: w.path, manifest: w.manifest, scratch: scratch, workers: scanSparseWorkers, stop: scanSparseStop, mainCall: "core.greedy",
	}, rep)
}
