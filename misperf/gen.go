package main

import (
	"fmt"
	"path/filepath"

	mis "repro"
)

// standIn is a power-law random graph shaped like one of the paper's
// Table 4 datasets: the dataset's vertex count divided by scale, and the
// exponent whose P(α, β) model has the dataset's average degree (very dense
// targets saturate at the densest exponent tried, as in misbench).
type standIn struct {
	name     string
	vertices int
	avgDeg   float64
	scale    int
}

var (
	twitter1000   = standIn{"twitter", 61_580_000, 78.12, 1000}
	citeseerx10   = standIn{"citeseerx", 6_540_000, 4.6, 10}
	citeseerx100  = standIn{"citeseerx", 6_540_000, 4.6, 100}
	youtube10     = standIn{"youtube", 1_160_000, 5.16, 10}
	blog100       = standIn{"blog", 4_040_000, 17.18, 100}
	serveStandIns = []standIn{blog100, youtube10, citeseerx100}
)

// write generates the stand-in for the benchmark seed and writes it
// degree-sorted to dir/<name>.adj, returning the path.
func (s standIn) write(dir string, seed int64) (string, error) {
	n := s.vertices / s.scale
	path := filepath.Join(dir, s.name+".adj")
	if err := mis.GeneratePowerLawFile(path, n, betaForAvgDegree(n, s.avgDeg), graphSeed(seed, s.name), true); err != nil {
		return "", fmt.Errorf("generate %s: %w", s.name, err)
	}
	return path, nil
}

// graphSeed derives a per-graph generator seed from the benchmark seed, so
// graphs of one run differ from each other and from other runs' graphs.
func graphSeed(seed int64, name string) int64 {
	h := int64(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ int64(name[i])) * 16777619 % (1 << 31)
	}
	return seed*1_000_003 + h
}

// betaForAvgDegree bisects for the exponent whose model average degree at
// n vertices is target; average degree falls as β grows.
func betaForAvgDegree(n int, target float64) float64 {
	avg := func(beta float64) float64 {
		_, _, v, e := mis.PowerLawParams(n, beta)
		return 2 * e / v
	}
	lo, hi := 1.05, 4.0
	if target >= avg(lo) {
		return lo
	}
	if target <= avg(hi) {
		return hi
	}
	for range 60 {
		mid := (lo + hi) / 2
		if avg(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
