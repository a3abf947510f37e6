package mis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrBaselineOnSorted is wrapped by the error Solve returns when AlgBaseline
// is requested on a degree-sorted file without the BaselineOnSorted opt-in.
var ErrBaselineOnSorted = errors.New("mis: baseline requested on a degree-sorted file")

// Solver runs the paper's algorithms over one File with a fixed
// configuration: swap tuning, scan parallelism, and observability hooks.
// Every entry point takes a context.Context and honors cancellation and
// deadlines within one decoded batch of a scan; the returned error then
// wraps ctx.Err() together with the scan position (errors.Is sees through
// it).
//
// A Solver is cheap to construct and safe for concurrent use: each call
// accounts its I/O into a private stat scope that merges into the file's
// lifetime totals, so several solvers — or several calls on one solver —
// may run against the same File from different goroutines. Results are
// bit-identical to the legacy context-free methods for every configuration.
type Solver struct {
	f   *File
	cfg solverConfig
}

type solverConfig struct {
	swap             SwapOptions
	workers          int
	onProgress       func(ScanProgress)
	onRound          func(RoundEvent)
	baselineOnSorted bool
}

// SolverOption configures a Solver.
type SolverOption func(*solverConfig)

// MaxRounds caps swap rounds; 0 (the default) means run until no swap fires.
// See SwapOptions.MaxRounds.
func MaxRounds(n int) SolverOption {
	return func(c *solverConfig) { c.swap.MaxRounds = n }
}

// EarlyStop stops the swap algorithms after a fixed number of rounds — the
// paper observes ≥97% of swap gain lands in the first three. 0 disables.
// See SwapOptions.EarlyStopRounds.
func EarlyStop(n int) SolverOption {
	return func(c *solverConfig) { c.swap.EarlyStopRounds = n }
}

// StallRounds stops the swap algorithms after this many consecutive
// zero-gain rounds; 0 selects the default of 3. See SwapOptions.StallRounds.
func StallRounds(n int) SolverOption {
	return func(c *solverConfig) { c.swap.StallRounds = n }
}

// Workers sets the solver's scan parallelism: the number of goroutines
// decoding file partitions concurrently during scans. Results are
// bit-identical for any value. 0 (the default) uses the file's setting, 1
// forces the sequential engine, ≤ -1 selects GOMAXPROCS. See WithWorkers.
func Workers(n int) SolverOption {
	return func(c *solverConfig) { c.workers = n }
}

// OnProgress attaches a per-scan progress observer: fn is called after every
// decoded batch of every sequential pass, synchronously on the scan
// goroutine — keep it cheap, and make it concurrency-tolerant if the solver
// is shared across goroutines.
func OnProgress(fn func(ScanProgress)) SolverOption {
	return func(c *solverConfig) { c.onProgress = fn }
}

// OnRound attaches a per-round observer to the swap algorithms: fn is called
// after every completed round with its gain and I/O delta, synchronously on
// the algorithm goroutine.
func OnRound(fn func(RoundEvent)) SolverOption {
	return func(c *solverConfig) { c.onRound = fn }
}

// BaselineOnSorted opts in to running AlgBaseline on a degree-sorted file.
// Without it Solve refuses (wrapping ErrBaselineOnSorted), because a
// baseline scan over a degree-sorted file silently reproduces GREEDY and
// inflates baseline numbers.
func BaselineOnSorted() SolverOption {
	return func(c *solverConfig) { c.baselineOnSorted = true }
}

// NewSolver returns a solver over f with the given options.
//
//	s := mis.NewSolver(f, mis.MaxRounds(9), mis.Workers(4),
//		mis.OnRound(func(ev mis.RoundEvent) { log.Printf("round %d: +%d", ev.Round, ev.Gain) }))
//	r, err := s.Solve(ctx, mis.AlgTwoKSwap)
func NewSolver(f *File, opts ...SolverOption) *Solver {
	s := &Solver{f: f}
	for _, o := range opts {
		o(&s.cfg)
	}
	return s
}

// source returns a fresh per-call scan engine: a view of the file that
// accounts into a run-private stat scope (merging into the file totals),
// parallel when the effective worker count exceeds 1.
func (s *Solver) source() core.Source {
	return s.f.runSource(s.cfg.workers)
}

// hooks hands the solver's observers to the core layer.
func (s *Solver) hooks() core.Hooks {
	return core.Hooks{OnScan: s.cfg.onProgress, OnRound: s.cfg.onRound}
}

// Solve runs the named algorithm. Swap algorithms are seeded with a fresh
// Greedy result; use the dedicated methods to control the seed.
func (s *Solver) Solve(ctx context.Context, alg Algorithm) (*Result, error) {
	switch alg {
	case AlgGreedy:
		return s.Greedy(ctx)
	case AlgBaseline:
		if s.f.DegreeSorted() && !s.cfg.baselineOnSorted {
			return nil, fmt.Errorf("%w: %s is degree-sorted, so the baseline scan would reproduce GREEDY and inflate baseline numbers; run it on the unsorted input, or opt in explicitly with mis.BaselineOnSorted()",
				ErrBaselineOnSorted, s.f.Path())
		}
		return s.Greedy(ctx) // identical scan; the file's order decides
	case AlgOneKSwap:
		seed, err := s.Greedy(ctx)
		if err != nil {
			return nil, err
		}
		return s.OneKSwap(ctx, seed)
	case AlgTwoKSwap:
		seed, err := s.Greedy(ctx)
		if err != nil {
			return nil, err
		}
		return s.TwoKSwap(ctx, seed)
	case AlgDynamicUpdate:
		return s.DynamicUpdate(ctx)
	case AlgExternalMaximal:
		return s.ExternalMaximal(ctx)
	}
	return nil, fmt.Errorf("mis: unknown algorithm %q", alg)
}

// Greedy runs Algorithm 1 (one sequential scan; a maximal independent set).
func (s *Solver) Greedy(ctx context.Context) (*Result, error) {
	r, err := core.GreedyCtx(ctx, s.source(), s.hooks())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// OneKSwap runs Algorithm 2 starting from the given independent set.
func (s *Solver) OneKSwap(ctx context.Context, initial *Result) (*Result, error) {
	if initial == nil {
		return nil, nilArg("OneKSwap", "initial set")
	}
	r, err := core.OneKSwapCtx(ctx, s.source(), initial.InSet, s.cfg.swap.internal(), s.hooks())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// TwoKSwap runs Algorithms 3–4 starting from the given independent set.
func (s *Solver) TwoKSwap(ctx context.Context, initial *Result) (*Result, error) {
	if initial == nil {
		return nil, nilArg("TwoKSwap", "initial set")
	}
	r, err := core.TwoKSwapCtx(ctx, s.source(), initial.InSet, s.cfg.swap.internal(), s.hooks())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// DynamicUpdate runs the classical in-memory greedy. It loads the whole
// graph into memory first — the scalability limitation the paper's
// algorithms remove — so expect it to fail on graphs that do not fit. The
// load runs as a scheduled scan of the solver's engine, so ctx cancels it
// between batches and OnProgress observes it like any other pass.
func (s *Solver) DynamicUpdate(ctx context.Context) (*Result, error) {
	g, err := core.LoadGraphSource(ctx, s.source(), s.hooks())
	if err != nil {
		return nil, err
	}
	return fromCore(core.DynamicUpdate(g)), nil
}

// ExternalMaximal computes a maximal independent set by time-forward
// processing through an external priority queue (the paper's STXXL
// competitor).
func (s *Solver) ExternalMaximal(ctx context.Context) (*Result, error) {
	r, err := core.ExternalMaximalCtx(ctx, s.source(), core.ExternalMaximalOptions{}, s.hooks())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// RandomizedMaximal computes a maximal independent set with the randomized
// external rounds of Abello, Buchsbaum and Westbrook. Deterministic per seed
// for any worker count.
func (s *Solver) RandomizedMaximal(ctx context.Context, seed int64) (*Result, error) {
	r, err := core.RandomizedMaximalCtx(ctx, s.source(), seed, s.hooks())
	if err != nil {
		return nil, err
	}
	return fromCore(r), nil
}

// UpperBound runs Algorithm 5: a one-scan upper bound on the independence
// number.
func (s *Solver) UpperBound(ctx context.Context) (uint64, error) {
	return core.UpperBoundCtx(ctx, s.source(), s.hooks())
}

// WeiBound returns Wei's degree-based lower bound on the independence
// number, Σ_v 1/(deg(v)+1), with one sequential scan.
func (s *Solver) WeiBound(ctx context.Context) (float64, error) {
	return core.WeiBoundCtx(ctx, s.source(), s.hooks())
}

// Verify checks independence and maximality together in one fused physical
// scan (see File.Verify). A nil result is rejected with a typed error
// wrapping ErrNilArgument.
func (s *Solver) Verify(ctx context.Context, r *Result) error {
	if r == nil {
		return nilArg("Verify", "result")
	}
	return core.VerifyBothCtx(ctx, s.source(), r.InSet, s.hooks())
}

// VerifyIndependent checks that no edge has both endpoints in the result.
func (s *Solver) VerifyIndependent(ctx context.Context, r *Result) error {
	if r == nil {
		return nilArg("VerifyIndependent", "result")
	}
	return core.VerifyIndependentCtx(ctx, s.source(), r.InSet, s.hooks())
}

// VerifyMaximal checks that every vertex outside the result has a neighbor
// inside it.
func (s *Solver) VerifyMaximal(ctx context.Context, r *Result) error {
	if r == nil {
		return nilArg("VerifyMaximal", "result")
	}
	return core.VerifyMaximalCtx(ctx, s.source(), r.InSet, s.hooks())
}

// VerifyVertexCover checks that every edge of the file has an endpoint in
// cover.
func (s *Solver) VerifyVertexCover(ctx context.Context, cover []bool) error {
	return core.VerifyVertexCoverCtx(ctx, s.source(), cover, s.hooks())
}

// ColorByIS builds a proper coloring by repeatedly extracting a maximal
// independent set (see File.ColorByIS). ctx cancels between batches and
// between color classes.
func (s *Solver) ColorByIS(ctx context.Context, maxColors int) (*Coloring, error) {
	col, err := core.ColorByISCtx(ctx, s.source(), maxColors, s.hooks())
	if err != nil {
		return nil, err
	}
	return &Coloring{
		Colors:     col.Colors,
		NumColors:  col.NumColors,
		ClassSizes: col.ClassSizes,
	}, nil
}

// VerifyColoring checks that the coloring is proper and complete. A nil
// coloring is rejected with a typed error wrapping ErrNilArgument.
func (s *Solver) VerifyColoring(ctx context.Context, col *Coloring) error {
	if col == nil {
		return nilArg("VerifyColoring", "coloring")
	}
	return core.VerifyColoringCtx(ctx, s.source(), &core.Coloring{
		Colors:     col.Colors,
		NumColors:  col.NumColors,
		ClassSizes: col.ClassSizes,
	}, s.hooks())
}
