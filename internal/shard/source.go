package shard

import (
	"context"
	"runtime"

	"repro/internal/exec"
	"repro/internal/gio"
)

// Source is one logical scan engine over a Set: it satisfies core.Source
// (and the scheduler's optional ctx capability) by running the shards'
// partitions, in manifest order, through the parallel scan executor
// (exec.Run), which merges their batches back into the merged graph's exact
// scan order on the calling goroutine. Construct one Source per concurrent
// run (they are cheap); a Source itself must not be used concurrently.
//
// The Source deliberately does not implement the plan-capture capability:
// its partitions come from metadata persisted at write time (footers and the
// manifest), so there is never a plan to capture — a cold open performs zero
// planning scans by construction.
type Source struct {
	set     *Set
	stats   *gio.Counters
	workers int
}

// Source returns a scan source over the set accounting into stats (which
// may be nil). workers ≤ 0 selects GOMAXPROCS; 1 decodes the shards one
// after another on a single worker.
func (s *Set) Source(stats *gio.Counters, workers int) *Source {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Source{set: s, stats: stats, workers: workers}
}

// NumVertices returns the merged graph's vertex count.
func (src *Source) NumVertices() int { return src.set.NumVertices() }

// Stats returns the counters the source accounts into, which may be nil.
func (src *Source) Stats() *gio.Counters { return src.stats }

// Workers returns the configured degree of parallelism.
func (src *Source) Workers() int { return src.workers }

// ForEachBatch runs one full merged scan, invoking fn for every decoded
// batch in scan order on the calling goroutine. Batch boundaries may differ
// from a single merged file's — no pass may depend on them.
func (src *Source) ForEachBatch(fn func([]gio.Record) error) error {
	return src.ForEachBatchCtx(nil, fn)
}

// ForEachBatchCtx is ForEachBatch bound to a context: cancellation stops the
// merge within one batch, drains every worker, and returns the ctx error
// wrapped in a gio.ScanError carrying the merged scan position.
func (src *Source) ForEachBatchCtx(ctx context.Context, fn func([]gio.Record) error) error {
	return exec.Run(ctx, src.units(), src.workers, src.stats, fn)
}

// units builds the run's work list from persisted metadata only. Shards with
// a loaded partition plan (footered files) split into byte-proportional
// record-aligned partitions; shards without one become a single unit whose
// bounds come from the manifest — either way, no planning scan runs.
func (src *Source) units() []exec.Unit {
	files, man := src.set.files, src.set.man
	var out []exec.Unit
	target := src.workers * exec.PartitionsPerWorker
	total := man.TotalBytes()
	for i, f := range files {
		e := man.Shards[i]
		if src.workers > 1 && f.HasPartitionPlan() {
			parts := 1
			if total > 0 {
				parts = int((int64(target)*e.Bytes + total/2) / total)
			}
			if parts < 1 {
				parts = 1
			}
			if ps, err := f.Partitions(parts); err == nil && len(ps) > 0 {
				for _, p := range ps {
					out = append(out, exec.Unit{File: f, Part: p})
				}
				continue
			}
		}
		out = append(out, exec.Unit{File: f, Part: gio.Partition{
			StartRecord: 0,
			Records:     e.Records,
			StartOffset: gio.HeaderSize,
			EndOffset:   f.PayloadEnd(),
		}})
	}
	return out
}
