package mis

import (
	"fmt"

	"repro/internal/gio"
)

// Result is an independent set together with the run's accounting.
type Result struct {
	// InSet marks membership, indexed by vertex ID.
	InSet []bool
	// Size is the number of vertices in the set.
	Size int
	// Rounds is the number of swap rounds executed (swap algorithms only).
	Rounds int
	// RoundGains lists the net new IS vertices per round (Table 8's
	// early-stop measurements).
	RoundGains []int
	// RoundIO is the I/O each swap round performed, aligned with
	// RoundGains. With cross-round pass fusion a steady-state round shows
	// one physical scan plus carried logical scans. Empty for non-swap
	// algorithms.
	RoundIO []IOStats
	// MemoryBytes is the high-water in-memory footprint of the algorithm's
	// auxiliary structures.
	MemoryBytes uint64
	// SCHighWater is the peak number of vertices held in SC swap-candidate
	// sets (two-k-swap only; Figure 10).
	SCHighWater int
	// Degrees summarizes the degree sequence (max, isolated count, 2·|E|),
	// collected by a read-only logical pass fused into Greedy's marking scan
	// — no extra physical scan. Zero-valued for other algorithms.
	Degrees DegreeStats
	// IO is the I/O performed by this run.
	IO IOStats
}

// DegreeStats summarizes a file's degree sequence as observed by one scan.
type DegreeStats struct {
	// Max is the largest degree.
	Max uint32
	// Isolated counts zero-degree vertices.
	Isolated int
	// Sum is the directed degree sum, i.e. 2·|E|.
	Sum uint64
}

// Vertices returns the members in ascending vertex-ID order.
func (r *Result) Vertices() []uint32 {
	out := make([]uint32, 0, r.Size)
	for v, in := range r.InSet {
		if in {
			out = append(out, uint32(v))
		}
	}
	return out
}

// Contains reports whether v is in the set.
func (r *Result) Contains(v uint32) bool {
	return int(v) < len(r.InSet) && r.InSet[v]
}

// Ratio returns Size divided by the given bound — the approximation ratio
// against an upper bound on the independence number.
func (r *Result) Ratio(upperBound uint64) float64 {
	if upperBound == 0 {
		return 0
	}
	return float64(r.Size) / float64(upperBound)
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("independent set: size=%d rounds=%d memory=%dB", r.Size, r.Rounds, r.MemoryBytes)
}

// IOStats counts the I/O a run performed: sequential scans, records, bytes
// and buffered blocks. Scans counts logical passes (each algorithm pass
// over the file); PhysicalScans counts actual end-to-end passes over the
// disk — fewer than Scans when the pass scheduler fused logical passes into
// shared physical scans, and the number the paper's I/O cost model prices;
// CarriedScans counts logical scans satisfied from state carried across swap
// rounds. It is the scan engine's own snapshot type (see gio.Stats for the
// field definitions), so a new counter is one edit.
type IOStats = gio.Stats
