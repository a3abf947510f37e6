package mis

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/shard"
)

// File is an open adjacency file: the on-disk graph the semi-external
// algorithms scan. It accumulates I/O statistics across every operation run
// against it.
//
// File is safe for concurrent use: every algorithm run scans through its own
// view of the file (reads are positional) and accounts into its own stat
// scope, which merges atomically into the file's lifetime totals. Any number
// of solvers — or the context-free convenience methods below — may run
// against one File from different goroutines.
type File struct {
	inner   *gio.File  // single adjacency file; nil when sharded
	shards  *shard.Set // shard set (see OpenSharded); nil for single files
	stats   gio.Counters
	workers atomic.Int32
}

// OpenOption customizes Open.
type OpenOption func(*openConfig)

type openConfig struct {
	blockSize int
	workers   int
	mmap      bool
}

// WithBlockSize sets the buffered I/O block size (the B of the paper's I/O
// cost formulas). The default is 256 KiB.
func WithBlockSize(b int) OpenOption {
	return func(c *openConfig) { c.blockSize = b }
}

// WithWorkers sets the file's default scan parallelism: the number of
// goroutines that decode partitions of the file concurrently during the
// scan-bound passes (Greedy, the swap algorithms' scans, verification,
// bounds). Results are bit-identical to sequential scans — partitions are
// merged back into scan order — so this is purely a throughput knob. 1 (the
// default) keeps every pass on the single-stream engine; ≤ 0 selects
// GOMAXPROCS. See SwapOptions.Workers and the Workers solver option for
// per-call overrides.
func WithWorkers(n int) OpenOption {
	return func(c *openConfig) { c.workers = n }
}

// WithMmap backs every scan of the file with a read-only memory mapping
// instead of the prefetching block pipeline: the decoder consumes file bytes
// straight out of the OS page cache, and on little-endian hosts raw
// (uncompressed) files decode with zero copies — neighbor lists alias the
// mapping itself. Records, errors, statistics and cancellation behave
// identically to the default engine; mapped scans still count as physical
// scans, since the paper's I/O cost model charges each pass for reading the
// file regardless of which kernel interface delivers the bytes. On platforms
// without mmap (or under the nommap build tag) the option silently falls
// back to the default engine — MmapActive reports which path is live.
func WithMmap() OpenOption {
	return func(c *openConfig) { c.mmap = true }
}

// Open opens an adjacency file produced by Builder.WriteFile,
// GeneratePowerLawFile, ImportEdgeList or SortFileByDegree.
func Open(path string, opts ...OpenOption) (*File, error) {
	cfg := openConfig{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	f := &File{}
	f.workers.Store(int32(cfg.workers))
	open := gio.Open
	if cfg.mmap {
		open = gio.OpenMmap
	}
	inner, err := open(path, cfg.blockSize, &f.stats)
	if err != nil {
		return nil, err
	}
	f.inner = inner
	return f, nil
}

// MmapActive reports whether scans of this file run off a live memory
// mapping (see WithMmap): false when the file was opened without the option,
// after the mmap fallback, or once the file is closed. A sharded graph
// reports true only when every shard is mapped.
func (f *File) MmapActive() bool {
	if f.shards != nil {
		return f.shards.MmapActive()
	}
	return f.inner.MmapActive()
}

// SetWorkers changes the file's default scan parallelism (see WithWorkers).
func (f *File) SetWorkers(n int) { f.workers.Store(int32(n)) }

// Workers returns the file's default scan parallelism.
func (f *File) Workers() int { return int(f.workers.Load()) }

// runSource returns the scan engine for one algorithm run: a view of the
// file accounting into a fresh per-run stat scope (whose every addition also
// lands in the file's lifetime totals), wrapped in the parallel partitioned
// executor when the effective worker count exceeds 1. Each run owning its
// scope and view is what makes concurrent runs on one File race-free.
// workers == 0 selects the file's default; 1 is sequential; ≤ -1 selects
// GOMAXPROCS.
func (f *File) runSource(workers int) core.Source {
	if workers == 0 {
		workers = f.Workers()
	}
	if f.shards != nil {
		return f.shards.Source(f.stats.Scope(), workers)
	}
	view := f.inner.WithCounters(f.stats.Scope())
	if workers == 1 {
		return view
	}
	return exec.New(view, workers)
}

// Close closes the file.
func (f *File) Close() error {
	if f.shards != nil {
		return f.shards.Close()
	}
	return f.inner.Close()
}

// Path returns the file's path — the manifest file's path for a sharded
// graph.
func (f *File) Path() string {
	if f.shards != nil {
		return f.shards.Path()
	}
	return f.inner.Path()
}

// NumVertices returns the number of vertices.
func (f *File) NumVertices() int {
	if f.shards != nil {
		return f.shards.NumVertices()
	}
	return f.inner.NumVertices()
}

// NumEdges returns the number of undirected edges.
func (f *File) NumEdges() uint64 {
	if f.shards != nil {
		return f.shards.NumEdges()
	}
	return f.inner.NumEdges()
}

// AvgDegree returns the average degree.
func (f *File) AvgDegree() float64 {
	n := f.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(f.NumEdges()) / float64(n)
}

// DegreeSorted reports whether the file's records are in ascending-degree
// scan order (the Greedy preprocessing).
func (f *File) DegreeSorted() bool {
	if f.shards != nil {
		return f.shards.DegreeSorted()
	}
	return f.inner.Header().DegreeSorted()
}

// SizeBytes returns the on-disk size — for a sharded graph, the summed size
// of the shard files.
func (f *File) SizeBytes() (int64, error) {
	if f.shards != nil {
		return f.shards.TotalBytes(), nil
	}
	return f.inner.SizeBytes()
}

// ContentDigest returns the SHA-256 of the file's on-disk contents as
// lowercase hex — the cache key component that names exactly this graph.
// It is computed lazily on the first call (one positional read pass that
// leaves in-flight scans undisturbed) and cached for the lifetime of the
// open file; reopening the path — or a journal compaction flipping to a new
// base generation, which opens a fresh file — starts from an empty cache,
// so a digest never outlives the bytes it names. ctx cancels the
// computation between blocks; failures are not cached. For a sharded graph
// this is the combined digest over the ordered per-shard content digests —
// the same cache-key role, derived from every shard's exact bytes.
func (f *File) ContentDigest(ctx context.Context) (string, error) {
	if f.shards != nil {
		return f.shards.CombinedDigest(ctx)
	}
	return f.inner.ContentDigest(ctx)
}

// Stats returns the accumulated I/O statistics for all operations on f.
func (f *File) Stats() IOStats { return f.stats.Snapshot() }

// ResetStats zeroes the accumulated I/O statistics.
func (f *File) ResetStats() { f.stats.Reset() }

// Greedy runs Algorithm 1 (one sequential scan; a maximal independent set).
// On a degree-sorted file this is the paper's GREEDY; on an unsorted file it
// is the BASELINE competitor.
func (f *File) Greedy() (*Result, error) {
	return f.GreedyCtx(context.Background())
}

// GreedyCtx is Greedy bound to a context: cancellation or deadline expiry
// stops the scan within one decoded batch and the error wraps ctx.Err()
// together with the scan position.
func (f *File) GreedyCtx(ctx context.Context) (*Result, error) {
	return NewSolver(f).Greedy(ctx)
}

// OneKSwap runs Algorithm 2 starting from the given independent set
// (typically a Greedy result).
func (f *File) OneKSwap(initial *Result, opts SwapOptions) (*Result, error) {
	return f.OneKSwapCtx(context.Background(), initial, opts)
}

// OneKSwapCtx is OneKSwap bound to a context (see GreedyCtx).
func (f *File) OneKSwapCtx(ctx context.Context, initial *Result, opts SwapOptions) (*Result, error) {
	return opts.solver(f).OneKSwap(ctx, initial)
}

// TwoKSwap runs Algorithms 3–4 starting from the given independent set.
func (f *File) TwoKSwap(initial *Result, opts SwapOptions) (*Result, error) {
	return f.TwoKSwapCtx(context.Background(), initial, opts)
}

// TwoKSwapCtx is TwoKSwap bound to a context (see GreedyCtx).
func (f *File) TwoKSwapCtx(ctx context.Context, initial *Result, opts SwapOptions) (*Result, error) {
	return opts.solver(f).TwoKSwap(ctx, initial)
}

// DynamicUpdate runs the classical in-memory greedy. It loads the whole
// graph into memory first — the scalability limitation the paper's
// algorithms remove — so expect it to fail on graphs that do not fit.
func (f *File) DynamicUpdate() (*Result, error) {
	return f.DynamicUpdateCtx(context.Background())
}

// DynamicUpdateCtx is DynamicUpdate bound to a context: the whole-graph load
// is canceled between batches.
func (f *File) DynamicUpdateCtx(ctx context.Context) (*Result, error) {
	return NewSolver(f).DynamicUpdate(ctx)
}

// ExternalMaximal computes a maximal independent set by time-forward
// processing through an external priority queue (the paper's STXXL
// competitor).
func (f *File) ExternalMaximal() (*Result, error) {
	return f.ExternalMaximalCtx(context.Background())
}

// ExternalMaximalCtx is ExternalMaximal bound to a context (see GreedyCtx).
func (f *File) ExternalMaximalCtx(ctx context.Context) (*Result, error) {
	return NewSolver(f).ExternalMaximal(ctx)
}

// UpperBound runs Algorithm 5: a one-scan upper bound on the independence
// number, the denominator of the paper's approximation ratios.
func (f *File) UpperBound() (uint64, error) {
	return f.UpperBoundCtx(context.Background())
}

// UpperBoundCtx is UpperBound bound to a context (see GreedyCtx).
func (f *File) UpperBoundCtx(ctx context.Context) (uint64, error) {
	return NewSolver(f).UpperBound(ctx)
}

// VerifyIndependent checks that no edge has both endpoints in the result.
func (f *File) VerifyIndependent(r *Result) error {
	return f.VerifyIndependentCtx(context.Background(), r)
}

// VerifyIndependentCtx is VerifyIndependent bound to a context.
func (f *File) VerifyIndependentCtx(ctx context.Context, r *Result) error {
	return NewSolver(f).VerifyIndependent(ctx, r)
}

// VerifyMaximal checks that every vertex outside the result has a neighbor
// inside it.
func (f *File) VerifyMaximal(r *Result) error {
	return f.VerifyMaximalCtx(context.Background(), r)
}

// VerifyMaximalCtx is VerifyMaximal bound to a context.
func (f *File) VerifyMaximalCtx(ctx context.Context, r *Result) error {
	return NewSolver(f).VerifyMaximal(ctx, r)
}

// Verify checks independence and maximality together. The two checks are
// logical passes the scan scheduler fuses into a single physical scan —
// half the I/O of calling VerifyIndependent and VerifyMaximal back to back
// — with an independence violation reported first, exactly as the
// sequential calls would.
func (f *File) Verify(r *Result) error {
	return f.VerifyCtx(context.Background(), r)
}

// VerifyCtx is Verify bound to a context.
func (f *File) VerifyCtx(ctx context.Context, r *Result) error {
	return NewSolver(f).Verify(ctx, r)
}

// solver builds the Solver equivalent of a legacy SwapOptions call: the
// swap tuning carries over and the per-call Workers override becomes the
// solver's worker count.
func (o SwapOptions) solver(f *File) *Solver {
	return &Solver{f: f, cfg: solverConfig{swap: o, workers: o.Workers}}
}
