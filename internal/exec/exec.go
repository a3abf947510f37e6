// Package exec implements the parallel scan executor: it fans the
// block-pipelined batch decoding of a scan-ordered list of units — each a
// record-aligned byte-range partition of one file — out across a pool of
// worker goroutines, and merges the decoded batches back into exact
// sequential scan order for a single consumer callback.
//
// One core, Run, serves every parallel scan in the repository. For a single
// adjacency file (Executor) the units are the file's partitions, planned
// once per file from batch-boundary cut points; for a sharded graph
// (internal/shard) they are the shards' partitions in manifest order, read
// from persisted metadata.
//
// The design keeps the sequential engine as the oracle: because batches are
// delivered to the callback in global record order on the calling goroutine,
// every pass migrated onto the executor — order-dependent ones like the
// greedy marking scan included — produces bit-identical results to a plain
// File.ForEachBatch. Parallelism accelerates only the decode (varint/gap
// expansion, fixed-width neighbor copies), which is where scan-bound passes
// spend their cycles; see the parity tests for the enforced equivalences and
// BENCH_parscan.json for the measured throughput.
//
// Executor's fallbacks preserve oracle behavior exactly: workers ≤ 1, files
// too small to split, and files whose partition planning fails (malformed
// input) all run the ordinary sequential scan, reproducing its records,
// error and Stats byte for byte.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gio"
)

const (
	// PartitionsPerWorker oversplits the scan relative to the worker count
	// so that a skewed unit (one hub vertex's huge record) does not
	// serialize the tail of the scan: workers claim units dynamically.
	PartitionsPerWorker = 2
	// unitChanDepth bounds decoded-but-unconsumed batches per unit, keeping
	// memory at O(workers · batch) while letting workers run ahead of the
	// consumer.
	unitChanDepth = 4
)

// Executor runs scans of one file with a fixed degree of parallelism. It is
// cheap to construct (partition plans are cached on the File) and satisfies
// the same scan interface as *gio.File, so algorithm passes accept either.
// Like the File it wraps, an Executor must not be used concurrently with
// itself or with other scans of the same file.
type Executor struct {
	f       *gio.File
	workers int
}

// New returns an executor over f using the given number of decode workers.
// workers ≤ 0 selects GOMAXPROCS; workers == 1 is the sequential engine.
func New(f *gio.File, workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{f: f, workers: workers}
}

// Workers returns the configured degree of parallelism.
func (e *Executor) Workers() int { return e.workers }

// File returns the underlying file.
func (e *Executor) File() *gio.File { return e.f }

// NumVertices returns the vertex count from the file header.
func (e *Executor) NumVertices() int { return e.f.NumVertices() }

// Header returns the file header.
func (e *Executor) Header() gio.Header { return e.f.Header() }

// Stats returns the file's shared I/O counters, which may be nil.
func (e *Executor) Stats() *gio.Counters { return e.f.Stats() }

// ForEach runs one full scan, invoking fn for every record in scan order.
func (e *Executor) ForEach(fn func(gio.Record) error) error {
	return e.ForEachBatch(func(batch []gio.Record) error {
		for i := range batch {
			if err := fn(batch[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// ForEachBatch runs one full scan, invoking fn for every decoded batch in
// scan order on the calling goroutine. With workers > 1 the batches are
// decoded concurrently by partition workers and merged deterministically;
// the record sequence, the first error (fn's or the decoder's, whichever
// comes first in scan order) and the completed scan's Stats are identical to
// gio.File.ForEachBatch. Batch boundaries may differ from the sequential
// engine's — no pass may depend on them. fn must not retain a batch or its
// Neighbors slices past the call.
func (e *Executor) ForEachBatch(fn func([]gio.Record) error) error {
	return e.ForEachBatchCtx(nil, fn)
}

// ForEachBatchCtx is ForEachBatch bound to a context: when ctx is canceled
// or its deadline passes, the merge loop stops within one batch, the worker
// pool is drained (no goroutine outlives the call), and the scan returns the
// ctx error wrapped in a gio.ScanError carrying the scan position. A nil ctx
// behaves exactly like ForEachBatch.
func (e *Executor) ForEachBatchCtx(ctx context.Context, fn func([]gio.Record) error) error {
	if e.workers <= 1 {
		return e.f.ForEachBatchCtx(ctx, fn)
	}
	if e.f.PlanCaptureViable() { // no plan cached yet and capture can still install one
		// Cold start: no cut table yet. A dedicated planning side scan would
		// read the whole file once before the counted scan reads it again, so
		// a one-shot workload would pay two passes over the disk. Instead run
		// this scan on the sequential engine and capture the plan from its
		// record stream — one physical pass, identical records, error and
		// Stats, and every subsequent scan goes parallel off the cached plan.
		// If the capture cannot validate (see gio), the next scan falls
		// through to Partitions' self-checking side scan below.
		return e.f.ForEachBatchWithPlanCaptureCtx(ctx, fn)
	}
	parts, err := e.f.Partitions(e.workers * PartitionsPerWorker)
	if err != nil || len(parts) < 2 {
		// Malformed input (planning failed) or a file too small to split:
		// the sequential engine is the oracle, run it verbatim.
		return e.f.ForEachBatchCtx(ctx, fn)
	}
	units := make([]Unit, len(parts))
	for i, p := range parts {
		units[i] = Unit{File: e.f, Part: p}
	}
	return Run(ctx, units, e.workers, e.f.Stats(), fn)
}

// ForEachBatchWithPlanCapture runs one full scan with opportunistic
// partition-plan capture (see gio.File.ForEachBatchWithPlanCapture). For the
// executor this is ForEachBatch itself — its cold start already captures —
// but the method makes the capability visible to the pass scheduler
// (internal/pipeline), which type-asserts for it.
func (e *Executor) ForEachBatchWithPlanCapture(fn func([]gio.Record) error) error {
	return e.ForEachBatchCtx(nil, fn)
}

// ForEachBatchWithPlanCaptureCtx is the context-aware form of
// ForEachBatchWithPlanCapture, likewise ForEachBatchCtx itself.
func (e *Executor) ForEachBatchWithPlanCaptureCtx(ctx context.Context, fn func([]gio.Record) error) error {
	return e.ForEachBatchCtx(ctx, fn)
}

// Unit is one work item of a scan: a record-aligned partition of one file.
// A file's units must be contiguous in the list and together cover its
// payload; the list order is the scan order.
type Unit struct {
	File *gio.File
	Part gio.Partition
}

// batchMsg carries one decoded batch (or a unit's terminal status) from a
// worker to the consumer. recs and arena transfer ownership with the
// message; the consumer recycles them through the buffer pool.
type batchMsg struct {
	recs  []gio.Record
	arena []uint32
	err   error
	last  bool
}

// batchBufs is a recycled (record slice, neighbor arena) pair.
type batchBufs struct {
	recs  []gio.Record
	arena []uint32
}

// Run runs one full scan over units with up to workers decode goroutines
// (at least one), invoking fn for every decoded batch in unit order on the
// calling goroutine. The earliest error in scan order — a unit's decode
// error or fn's — stops the scan and is returned; a canceled ctx stops the
// merge within one batch and returns the ctx error wrapped in a
// gio.ScanError carrying the merged scan position. Either way the worker
// pool is drained before Run returns.
//
// Run accounts into stats (which may be nil) what a sequential scan of each
// covered file would have counted: ceil(covered/B) blocks per file, every
// block full-sized except a final one clipped at the file's end, plus
// exactly one logical and one physical scan when the run completes. A
// completed run covers every file whole, so its Stats are identical at any
// worker count; a run stopped by an error covers each file's fully consumed
// unit prefix, a deterministic lower bound on what the sequential engine
// would have counted before the same stopping point.
func Run(ctx context.Context, units []Unit, workers int, stats *gio.Counters, fn func([]gio.Record) error) error {
	// Zero-copy batches alias a file's mapping while they sit in the unit
	// channels — after the worker's scanner has closed and released its own
	// mapping reference. Pin every mapped file once for the whole run so a
	// concurrent Close defers the munmap past the last of those in-flight
	// batches. If a pin fails (file already closing), the workers' scans
	// fail fast below and the error propagates normally.
	var total uint64
	for i, u := range units {
		total += u.Part.Records
		if i > 0 && units[i-1].File == u.File {
			continue
		}
		if release, ok := u.File.PinMap(); ok {
			defer release()
		}
	}
	nw := min(max(workers, 1), len(units))
	chans := make([]chan batchMsg, len(units))
	for i := range chans {
		chans[i] = make(chan batchMsg, unitChanDepth)
	}
	quit := make(chan struct{})
	pool := &sync.Pool{New: func() any { return &batchBufs{} }}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				if !scanUnit(units[i], chans[i], quit, pool) {
					return
				}
			}
		}()
	}

	// Consume units in order; within a unit, batches arrive in order. The
	// merged invocation sequence is therefore the sequential scan order, and
	// the earliest error in that order wins — exactly the sequential
	// engine's stopping point.
	done := 0 // units fully consumed
	var delivered uint64
	var runErr error
consume:
	for ; done < len(chans); done++ {
		for {
			msg := <-chans[done]
			if msg.last {
				if msg.err != nil {
					runErr = msg.err
					break consume
				}
				break
			}
			if ctx != nil {
				// Cancellation point of the merge loop: stop before handing
				// fn another batch, then fall through to the pool drain
				// below — close(quit) unblocks every worker, wg.Wait
				// guarantees none outlives the call.
				if err := ctx.Err(); err != nil {
					runErr = &gio.ScanError{Records: delivered, Total: total, Err: err}
					break consume
				}
			}
			if stats != nil {
				stats.AddRecordsRead(uint64(len(msg.recs)))
			}
			if err := fn(msg.recs); err != nil {
				runErr = err
				break consume
			}
			delivered += uint64(len(msg.recs))
			pool.Put(&batchBufs{recs: msg.recs, arena: msg.arena})
		}
	}
	close(quit)
	wg.Wait()

	if stats != nil {
		account(stats, units[:done])
		if runErr == nil {
			stats.AddScans(1)
			stats.AddPhysicalScans(1)
		}
	}
	return runErr
}

// account adds the block and byte counters of the consumed units: for each
// file, the sequential engine's ceil(covered/B) blocks to reach the end of
// its last consumed unit.
func account(stats *gio.Counters, consumed []Unit) {
	for i, u := range consumed {
		if i+1 < len(consumed) && consumed[i+1].File == u.File {
			continue // not the file's last consumed unit
		}
		covered := u.Part.EndOffset - gio.HeaderSize
		if covered <= 0 {
			continue
		}
		b := int64(u.File.BlockSize())
		blocks := (covered + b - 1) / b
		bytes := blocks * b
		if size, err := u.File.SizeBytes(); err == nil && bytes > size-gio.HeaderSize {
			bytes = size - gio.HeaderSize
		}
		stats.AddBlocksRead(uint64(blocks))
		stats.AddBytesRead(uint64(bytes))
	}
}

// scanUnit decodes one unit, shipping each batch (with its
// ownership-transferred buffers) to ch, then a terminal message carrying the
// unit's scan error. It reports false when the run was cancelled.
func scanUnit(u Unit, ch chan<- batchMsg, quit <-chan struct{}, pool *sync.Pool) bool {
	sc := u.File.ScanPartition(u.Part)
	defer sc.Close()
	for {
		batch := sc.NextBatch()
		if batch == nil {
			break
		}
		bufs := pool.Get().(*batchBufs)
		recs, arena := sc.SwapBuffers(bufs.recs, bufs.arena)
		select {
		case ch <- batchMsg{recs: recs, arena: arena}:
		case <-quit:
			return false
		}
	}
	select {
	case ch <- batchMsg{err: sc.Err(), last: true}:
		return true
	case <-quit:
		return false
	}
}
