// Package mis computes large independent sets on massive graphs under the
// semi-external memory model, implementing the algorithms of
//
//	Liu, Lu, Yang, Xiao, Wei. "Towards Maximum Independent Sets on Massive
//	Graphs." PVLDB 8(13), 2015.
//
// The model assumes main memory holds a few bytes per vertex but not the
// edges: graphs live in an on-disk adjacency file that the algorithms read
// only through sequential scans. The package offers:
//
//   - Greedy — Algorithm 1: one scan of a degree-sorted file, a maximal
//     independent set within ~98–99% of the optimum on power-law graphs.
//   - OneKSwap — Algorithm 2: exchanges one IS vertex for k ≥ 2 others,
//     resolving swap conflicts with a six-state machine and scan-order
//     preemption.
//   - TwoKSwap — Algorithms 3–4: additionally exchanges two IS vertices for
//     k ≥ 3 others via the SC swap-candidate store.
//   - Baselines from the paper's evaluation: BaselineGreedy (no degree
//     sort), DynamicUpdate (classical in-memory greedy), ExternalMaximal
//     (time-forward processing with an external priority queue), and the
//     Algorithm 5 upper bound on the independence number.
//
// # Quick start
//
//	// Build a graph file (or mis.GeneratePowerLawFile / mis.ImportEdgeList).
//	b := mis.NewBuilder(5)
//	b.AddEdge(0, 2)
//	b.AddEdge(0, 3)
//	b.AddEdge(0, 4)
//	if err := b.WriteFile("toy.adj", true); err != nil { ... }
//
//	f, err := mis.Open("toy.adj")
//	if err != nil { ... }
//	defer f.Close()
//
//	solver := mis.NewSolver(f)
//	greedy, _ := solver.Greedy(ctx)
//	better, _ := solver.TwoKSwap(ctx, greedy)
//	fmt.Println(better.Size, better.Vertices())
//
// The Solver is the context-first entry point: every call takes a
// context.Context that cancels a multi-minute scan within one decoded
// batch, functional options tune the run (MaxRounds, Workers, …) and attach
// observers (OnProgress, OnRound), and concurrent solvers may share one
// File — each run accounts into its own stat scope that merges into the
// file's totals. The context-free File methods (f.Greedy(),
// f.TwoKSwap(seed, opts), …) remain as thin context.Background wrappers.
package mis

import (
	"context"

	"repro/internal/core"
)

// Algorithm names one of the six algorithms of the paper's evaluation
// (Section 7).
type Algorithm string

// The algorithms of Table 5.
const (
	AlgGreedy          Algorithm = "greedy"
	AlgBaseline        Algorithm = "baseline"
	AlgOneKSwap        Algorithm = "one-k-swap"
	AlgTwoKSwap        Algorithm = "two-k-swap"
	AlgDynamicUpdate   Algorithm = "dynamic-update"
	AlgExternalMaximal Algorithm = "external-maximal" // the paper's "STXXL"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgGreedy, AlgBaseline, AlgOneKSwap, AlgTwoKSwap,
		AlgDynamicUpdate, AlgExternalMaximal,
	}
}

// SwapOptions tune the swap algorithms; the zero value selects defaults.
// Defaults are decided in exactly one place, core.SwapOptions.WithDefaults,
// which the swap algorithms apply on entry; the field comments here restate
// them for reference.
type SwapOptions struct {
	// MaxRounds caps swap rounds; 0 means effectively unbounded (the
	// algorithms stop when no swap fires). Real graphs need 2–9 rounds.
	MaxRounds int
	// EarlyStopRounds stops after a fixed number of rounds — the paper
	// observes ≥97% of swap gain lands in the first three. 0 disables.
	EarlyStopRounds int
	// StallRounds stops after this many consecutive zero-gain rounds;
	// 0 selects 3.
	StallRounds int
	// Workers overrides the file's scan parallelism for this call: the
	// number of goroutines decoding file partitions concurrently during the
	// algorithm's scans (see WithWorkers). Results are bit-identical for any
	// value. 0 uses the file's default, 1 forces the sequential engine,
	// ≤ -1 selects GOMAXPROCS.
	Workers int
}

func (o SwapOptions) internal() core.SwapOptions {
	return core.SwapOptions{
		MaxRounds:       o.MaxRounds,
		EarlyStopRounds: o.EarlyStopRounds,
		StallRounds:     o.StallRounds,
	}
}

// Solve runs the named algorithm on f. Swap algorithms are seeded with a
// fresh Greedy result; use the dedicated methods to control the seed.
// AlgBaseline on a degree-sorted file is refused (see ErrBaselineOnSorted);
// construct a Solver with BaselineOnSorted to opt in.
func (f *File) Solve(alg Algorithm, opts SwapOptions) (*Result, error) {
	return f.SolveCtx(context.Background(), alg, opts)
}

// SolveCtx is Solve bound to a context: cancellation or deadline expiry
// stops the run within one decoded batch of the current scan, and the error
// wraps ctx.Err() together with the scan position. Equivalent to
// NewSolver(f, ...).Solve(ctx, alg) with the SwapOptions carried over.
func (f *File) SolveCtx(ctx context.Context, alg Algorithm, opts SwapOptions) (*Result, error) {
	return opts.solver(f).Solve(ctx, alg)
}

// fromCore converts an internal result.
func fromCore(r *core.Result) *Result {
	return &Result{
		InSet:       r.InSet,
		Size:        r.Size,
		Rounds:      r.Rounds,
		RoundGains:  append([]int(nil), r.RoundGains...),
		RoundIO:     r.RoundIO,
		MemoryBytes: r.MemoryBytes,
		SCHighWater: r.SCHighWater,
		Degrees:     DegreeStats(r.Degrees),
		IO:          r.IO,
	}
}
