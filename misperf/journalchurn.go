package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	mis "repro"
	"repro/internal/gio"
	"repro/internal/graph"
)

// journalChurn is the write workload: one writer applies a seeded edge
// stream to a journal store over a sparse graph, a batch at a time, and
// syncs once per job, while an online compaction folds the journal into a
// new base every fixed number of batches. Each batch deletes the previous
// batch's inserts, so the graph's size stays stationary.
type journalChurn struct {
	cfg    config
	jdir   string
	j      *mis.Journal
	stream *edgeStream
}

const (
	// churnInserts is half a batch: a batch deletes this many edges and
	// inserts as many.
	churnInserts = 32
	churnBatch   = 2 * churnInserts
	// churnGroup batches, then one Journal.Sync, make one job. A job of one
	// batch (about 0.3 ms) would put the tail rule at the 99.98th
	// percentile of some 60,000 jobs, where host jitter alone decides it;
	// 64 batches put it near the 99th, among the jobs a compaction stalls.
	// One fsync per job keeps the disk's latency, which follows the load
	// of the machine the disk is shared with, from dominating the job.
	churnGroup = 64
	// churnCompactEvery is the number of batches between compactions; the
	// first starts half-way into the first interval.
	churnCompactEvery = 100 * churnGroup
	churnWorkers      = 1
	// churnRSSEvery jobs make one peak-memory window.
	churnRSSEvery = 4
	churnStop     = 2 // used by the traced run's swap probes only
)

// churnOptions makes the writer's Sync the only flush: no update triggers
// a group commit.
func churnOptions() []mis.JournalOption {
	return []mis.JournalOption{mis.SyncEvery(1 << 30), mis.JournalWorkers(churnWorkers)}
}

func (w *journalChurn) jobs() int {
	return w.cfg.jobCount(churnGroup*150*time.Microsecond, 2*churnCompactEvery/churnGroup)
}

func (w *journalChurn) setup(ctx context.Context, dir string) error {
	base, err := youtube10.write(dir, w.cfg.seed)
	if err != nil {
		return err
	}
	if w.stream, err = newEdgeStream(base, w.cfg.seed); err != nil {
		return err
	}
	w.jdir = filepath.Join(dir, "journal")
	if err := mis.InitJournal(w.jdir, base, churnOptions()...); err != nil {
		return err
	}
	if w.j, err = mis.OpenJournal(ctx, w.jdir, churnOptions()...); err != nil {
		return err
	}
	w.stream.next()
	for _, e := range w.stream.cur {
		if err := w.j.InsertEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	return w.j.Sync()
}

// edgeStream draws the batches of new edges from the seed: no edge is in
// the base graph, and none repeats an edge of its own or the previous
// batch, so every insert adds an edge and every delete removes one the
// stream added.
type edgeStream struct {
	g           *graph.Graph
	rng         *rand.Rand
	prev, cur   [][2]uint32
	prevK, curK map[uint64]bool
}

func newEdgeStream(base string, seed int64) (*edgeStream, error) {
	g, err := gio.LoadGraph(base, nil)
	if err != nil {
		return nil, err
	}
	return &edgeStream{g: g, rng: rand.New(rand.NewSource(seed)), prevK: map[uint64]bool{}, curK: map[uint64]bool{}}, nil
}

// next advances to the next batch: the previous batch's inserts become
// the edges to delete, and a fresh set of inserts is drawn.
func (s *edgeStream) next() {
	s.prev, s.prevK = s.cur, s.curK
	s.cur, s.curK = make([][2]uint32, 0, churnInserts), make(map[uint64]bool, churnInserts)
	nv := s.g.NumVertices()
	for len(s.cur) < churnInserts {
		u, v := uint32(s.rng.Intn(nv)), uint32(s.rng.Intn(nv))
		k := uint64(min(u, v))<<32 | uint64(max(u, v))
		if u == v || s.g.HasEdge(u, v) || s.prevK[k] || s.curK[k] {
			continue
		}
		s.curK[k] = true
		s.cur = append(s.cur, [2]uint32{u, v})
	}
}

func (w *journalChurn) close() {
	if w.j != nil {
		w.j.Close()
	}
}

// compaction is one online Journal.Compact and what it did.
type compaction struct {
	start, end time.Time
	deltaEdges int
	io         mis.IOStats
	err        error
	done       chan struct{}
}

// compact starts a compaction on its own goroutine and returns once the
// journal has sealed its active segment, so every run folds exactly the
// updates made before this call. The traced run repairs the set after each
// compaction.
func (w *journalChurn) compact(ctx context.Context, tr *tracer, id int) *compaction {
	st := w.j.Stats()
	c := &compaction{deltaEdges: st.DeltaEdges, done: make(chan struct{})}
	f, release := w.j.AcquireFile()
	before := f.Stats()
	go func() {
		defer close(c.done)
		defer release()
		span := tr.begin("journal.compact", 0, id)
		c.start = time.Now()
		c.err = w.j.Compact(ctx)
		c.end = time.Now()
		tr.end(span)
		c.io = subIO(f.Stats(), before)
		if tr != nil && c.err == nil {
			c.err = tr.do("dynamic.repair", 0, id, func() error {
				_, err := w.j.Repair(ctx)
				return err
			})
		}
	}()
	for w.j.Stats().ActiveSegment == st.ActiveSegment {
		select {
		case <-c.done:
			return c
		case <-time.After(50 * time.Microsecond):
		}
	}
	return c
}

// batch applies the stream's current batch: delete the previous batch's
// inserts, then insert this batch's edges. ut traces each update; the
// traced run passes it for one batch of a job, which keeps the span count,
// and so the tracing overhead, small.
func (w *journalChurn) batch(tr, ut *tracer, parent, job int) error {
	span := tr.begin("journal.batch", parent, job)
	defer tr.end(span)
	for _, e := range w.stream.prev {
		if err := ut.do("wal.update", span, job, func() error { return w.j.DeleteEdge(e[0], e[1]) }); err != nil {
			return err
		}
	}
	for _, e := range w.stream.cur {
		if err := ut.do("wal.update", span, job, func() error { return w.j.InsertEdge(e[0], e[1]) }); err != nil {
			return err
		}
	}
	return nil
}

func (w *journalChurn) run(ctx context.Context, tr *tracer) (*report, error) {
	rep := newReport(churnRSSEvery)
	n := w.jobs()
	var (
		compactions          []*compaction
		batchStart, batchEnd []time.Time
		batchMS              []float64
		walBytes             []float64 // journal bytes per update, traced jobs
		evictions            int
		tracedUpdates        int
	)
	written0, err := writtenBytes()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := range n {
		jt := traceEveryOther(tr, i)
		var (
			st0 mis.JournalStats
			m0  *mis.Maintainer
			e0  int
		)
		if jt != nil {
			st0, m0 = w.j.Stats(), w.j.Maintainer()
			e0 = m0.Evictions()
		}
		span := jt.begin("job", 0, i)
		t0 := time.Now()
		var (
			err   error
			draws time.Duration // drawing the stream, kept out of the job's time
		)
		for k := 1; k <= churnGroup && err == nil; k++ {
			b := i*churnGroup + k
			if b%churnCompactEvery == churnCompactEvery/2 {
				if last := len(compactions) - 1; last >= 0 {
					<-compactions[last].done
				}
				compactions = append(compactions, w.compact(ctx, tr, i))
			}
			drawn := time.Now()
			w.stream.next()
			b0 := time.Now()
			draws += b0.Sub(drawn)
			ut := jt
			if k > 1 {
				ut = nil
			}
			err = w.batch(jt, ut, span, i)
			b1 := time.Now()
			batchStart, batchEnd, batchMS = append(batchStart, b0), append(batchEnd, b1), append(batchMS, ms(b1.Sub(b0)))
		}
		if err == nil {
			err = jt.do("wal.sync", span, i, w.j.Sync)
		}
		d := time.Since(t0) - draws
		jt.end(span)
		rep.harness += draws
		rep.addJob(jt, tr, d)
		if err != nil {
			rep.fail(1, "job %d: %v", i, err)
			continue
		}
		if jt != nil {
			st1, m1 := w.j.Stats(), w.j.Maintainer()
			if st1.Generation == st0.Generation && st1.ActiveSegment == st0.ActiveSegment {
				walBytes = append(walBytes, float64(st1.JournalBytes-st0.JournalBytes)/(churnGroup*churnBatch))
			}
			if m1 == m0 {
				evictions += m1.Evictions() - e0
				tracedUpdates += churnGroup * churnBatch
			}
		}
	}
	for _, c := range compactions {
		<-c.done
	}
	rep.wall = time.Since(start)
	written1, err := writtenBytes()
	if err != nil {
		return nil, err
	}
	rep.attempted = n

	var folds mis.IOStats
	var compactMS, deltas, stallMS []float64
	for _, c := range compactions {
		if c.err != nil {
			rep.fail(1, "compaction: %v", c.err)
			continue
		}
		folds = addIO(folds, c.io)
		compactMS = append(compactMS, ms(c.end.Sub(c.start)))
		deltas = append(deltas, float64(c.deltaEdges))
	}
	for i := range batchStart {
		for _, c := range compactions {
			if batchStart[i].Before(c.end) && batchEnd[i].After(c.start) {
				stallMS = append(stallMS, batchMS[i])
				break
			}
		}
	}

	// Outside the timed phase: restore maximality and check the set is
	// independent in the effective graph.
	if _, err := w.j.Repair(ctx); err != nil {
		return nil, err
	}
	if err := errors.Join(w.j.Verify(ctx), w.j.Err()); err != nil {
		rep.fail(n, "journal after the stream: %v", err)
	}
	rep.isSize = w.j.Stats().SetSize
	rep.physScansPerJob = float64(folds.PhysicalScans) / float64(n)
	rep.bytesReadPerJob = float64(folds.BytesRead) / float64(n)
	perUpdate := float64(written1-written0) / float64(n*churnGroup*churnBatch)
	rep.detail["compactions"] = float64(len(compactions))
	rep.detail["compact_ms"] = median(compactMS)
	rep.detail["bytes_written_per_update"] = perUpdate
	rep.detail["stall_p50_ms"] = median(stallMS)
	rep.detail["updates_per_fsync"] = churnGroup * churnBatch

	rep.layer["journal.compact_ms"] = median(compactMS)
	rep.layer["journal.bytes_written_per_update"] = perUpdate
	rep.layer["journal.delta_edges_at_compact"] = median(deltas)
	rep.layer["journal.stall_p50_ms"] = median(stallMS)
	rep.layer["wal.bytes_per_update"] = median(walBytes)
	if tracedUpdates > 0 {
		rep.layer["dynamic.evictions_per_update"] = float64(evictions) / float64(tracedUpdates)
	}
	setPipeline(rep.layer, folds, n)
	return rep, nil
}

func (w *journalChurn) probe(ctx context.Context, tr *tracer, rep *report, scratch string) error {
	us := tr.durations("wal.update")
	xs := make([]float64, len(us))
	for i, d := range us {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	rep.layer["wal.update_us"] = median(xs)
	rep.layer["wal.sync_ms"] = tr.medianMS("wal.sync")
	rep.layer["dynamic.repair_ms"] = tr.medianMS("dynamic.repair")
	return probeLayers(ctx, tr, probeTarget{
		path: w.j.Stats().BasePath, scratch: scratch, workers: churnWorkers, stop: churnStop, mainCall: "core.onek",
	}, rep)
}

// writtenBytes is the bytes this process has passed to write calls so far
// (wchar in /proc/self/io): journal appends, base rewrites and manifests in
// the journal workload, where nothing else writes.
func writtenBytes() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}
