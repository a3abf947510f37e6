package core

import "repro/internal/gio"

// Source is the scan engine an algorithm pass reads the graph through: one
// full sequential pass per ForEachBatch call, batches delivered in scan
// order on the calling goroutine. *gio.File (the sequential engine and
// oracle), *exec.Executor (the parallel executor over one file's partitions)
// and *shard.Source (the same executor over a shard set's partitions) all
// satisfy it, and because the executor merges units back into scan order, a
// pass is oblivious to which one it runs on — results are bit-identical by
// construction, which the exec parity tests enforce.
type Source interface {
	// NumVertices returns the vertex count from the file header.
	NumVertices() int
	// Stats returns the shared I/O counters, which may be nil.
	Stats() *gio.Counters
	// ForEachBatch runs one full scan, invoking fn for every decoded batch
	// of records in scan order. fn must not retain a batch.
	ForEachBatch(fn func([]gio.Record) error) error
}
