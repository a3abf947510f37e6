// Parscanbench measures raw scan throughput of the parallel partitioned
// executor (internal/exec) across worker counts, against the single-stream
// block-pipelined engine as the workers=1 baseline, and emits a
// machine-readable BENCH_parscan.json so the parallel-scan trajectory is
// tracked across PRs.
//
// Methodology: one graph, two file formats (raw and varint/gap compressed),
// five trials per (format, workers) cell, best-of reported. Every
// measurement is a full ForEachBatch pass folding record IDs and degrees
// into a sink, i.e. the same access pattern as the migrated algorithm
// passes' cheapest consumer. The partition plan is warmed before timing so
// the numbers isolate steady-state scan throughput (the plan is built once
// per file and amortized over every subsequent scan). NumCPU is recorded
// because the executor parallelizes decode CPU, not disk: on a single-core
// host the sweep measures overhead (expect ≈1x), while the ≥4-core speedup
// target needs ≥4 hardware threads to be observable.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/plrg"
	"repro/internal/shard"
)

// parScanWorkers is the sweep; 1 is the single-stream baseline.
var parScanWorkers = []int{1, 2, 4, 7}

// parScanShards is the shard count of the sharded sweep mode.
const parScanShards = 4

// ParScanBenchResult is one (scan mode, worker count) measurement.
type ParScanBenchResult struct {
	Format  string  `json:"format"`  // "raw", "compressed" or "sharded"
	Workers int     `json:"workers"` // 1 = single-stream engine
	Bytes   int64   `json:"bytes"`   // payload scanned per pass
	NsPerOp int64   `json:"ns_per_op"`
	MBPerS  float64 `json:"mb_per_s"`
}

// ParScanBenchReport is the BENCH_parscan.json document.
type ParScanBenchReport struct {
	Go        string               `json:"go"`
	NumCPU    int                  `json:"num_cpu"`
	Vertices  int                  `json:"vertices"`
	Edges     int                  `json:"edges"`
	BlockSize int                  `json:"block_size"`
	Trials    int                  `json:"trials"`
	Results   []ParScanBenchResult `json:"results"`
	// Speedup is executor-over-single-stream throughput per format at
	// 4 workers, the headline number (meaningful on ≥4-core hosts).
	Speedup map[string]float64 `json:"speedup_at_4_workers"`
	// Note flags measurements that cannot show what the artifact exists to
	// track — set when NumCPU < 4, where the worker sweep can only measure
	// scheduling overhead, not multi-core decode speedup. Always read
	// num_cpu before comparing speedups across hosts.
	Note string `json:"note,omitempty"`
}

// ParScanBench runs the worker sweep and writes BENCH_parscan.json (to
// cfg.ParScanBenchOut, or the work directory when unset).
func ParScanBench(cfg *Config) error {
	cfg = cfg.withDefaults()
	n := cfg.SweepVertices * 4
	g := plrg.PowerLawN(n, 2.0, cfg.Seed)

	rawPath, err := cfg.cachedFile(fmt.Sprintf("scanbench-raw-n%d", n), func(path string) error {
		return gio.WriteGraph(path, g, nil, 0, nil)
	})
	if err != nil {
		return err
	}
	compPath, err := cfg.cachedFile(fmt.Sprintf("scanbench-comp-n%d", n), func(path string) error {
		return gio.WriteGraph(path, g, nil, gio.FlagCompressed, nil)
	})
	if err != nil {
		return err
	}

	const trials = 5
	report := ParScanBenchReport{
		Go:        runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		BlockSize: gio.DefaultBlockSize,
		Trials:    trials,
		Speedup:   map[string]float64{},
	}

	files := []struct{ format, path string }{
		{"raw", rawPath},
		{"compressed", compPath},
	}
	best := map[string]float64{} // format/workers → MB/s
	measure := func(format string, payload int64, workers int, src parScanSource) error {
		var bestNs int64
		for t := 0; t < trials; t++ {
			ns, err := timeParScan(src, format)
			if err != nil {
				return err
			}
			if bestNs == 0 || ns < bestNs {
				bestNs = ns
			}
		}
		mbps := float64(payload) / (float64(bestNs) / 1e9) / 1e6
		best[fmt.Sprintf("%s/%d", format, workers)] = mbps
		report.Results = append(report.Results, ParScanBenchResult{
			Format:  format,
			Workers: workers,
			Bytes:   payload,
			NsPerOp: bestNs,
			MBPerS:  mbps,
		})
		cfg.printf("%-11s workers=%d %8.1f MB/s\n", format, workers, mbps)
		return nil
	}
	var rawPayload int64
	for _, fl := range files {
		f, err := gio.Open(fl.path, 0, nil)
		if err != nil {
			return err
		}
		size, err := f.SizeBytes()
		if err != nil {
			f.Close()
			return err
		}
		payload := size - gio.HeaderSize
		if fl.format == "raw" {
			rawPayload = payload
		}
		// Warm the partition plan outside the timed region. (Footered files
		// and shard sets come with the plan pre-loaded; this is a no-op for
		// them.)
		if _, err := f.Partitions(2); err != nil {
			f.Close()
			return err
		}
		for _, workers := range parScanWorkers {
			if err := measure(fl.format, payload, workers, exec.New(f, workers)); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}

	// Shard mode: the raw graph split into vertex-range shards, scanned
	// through the same parallel executor over the shards' partitions.
	// Payload is the single raw file's — the same records are decoded — so
	// MB/s stays comparable with the raw rows.
	shardDir := filepath.Join(cfg.WorkDir, fmt.Sprintf("scanbench-shards-n%d", n))
	if !shard.IsManifestPath(shardDir) {
		if _, err := shard.SplitFile(context.Background(), rawPath, shardDir, shard.SplitOptions{Shards: parScanShards}); err != nil {
			return err
		}
	}
	set, err := shard.Open(shardDir, shard.Options{})
	if err != nil {
		return err
	}
	for _, workers := range parScanWorkers {
		if err := measure("sharded", rawPayload, workers, set.Source(nil, workers)); err != nil {
			set.Close()
			return err
		}
	}
	set.Close()

	for _, format := range []string{"raw", "compressed", "sharded"} {
		report.Speedup[format] = best[format+"/4"] / best[format+"/1"]
	}
	if report.NumCPU < 4 {
		report.Note = fmt.Sprintf("measured on a %d-CPU host: the sweep can only show "+
			"scheduling overhead here, not multi-core decode speedup; expect ≈1x or below "+
			"at every worker count", report.NumCPU)
	}
	cfg.printf("speedup at 4 workers (vs single-stream): raw %.2fx, compressed %.2fx (host has %d CPUs)\n",
		report.Speedup["raw"], report.Speedup["compressed"], report.NumCPU)
	if report.Note != "" {
		cfg.printf("NOTE: %s\n", report.Note)
	}

	out := cfg.ParScanBenchOut
	if out == "" {
		out = filepath.Join(cfg.WorkDir, "BENCH_parscan.json")
	}
	if err := parScanOverwriteGuard(out, report.NumCPU, cfg.Force); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	cfg.printf("wrote %s\n", out)
	return nil
}

// parScanOverwriteGuard refuses to clobber an existing BENCH_parscan.json
// from a host with fewer than 4 CPUs: such a host cannot measure the
// multi-core decode speedup the artifact exists to track (the PR 2 artifact
// came from a 1-CPU container and records overhead, not speedup), so an
// unforced run there must not replace a meaningful measurement with a
// meaningless one.
func parScanOverwriteGuard(out string, numCPU int, force bool) error {
	if numCPU >= 4 || force {
		return nil
	}
	if _, err := os.Stat(out); err == nil {
		return fmt.Errorf("bench: refusing to overwrite %s from a %d-CPU host (<4): "+
			"the sweep only measures scheduling overhead here (a 1-CPU container is the "+
			"common case — GOMAXPROCS gives the workers nothing to run on), so the "+
			"artifact would record noise as if it were speedup; pass -force to overwrite "+
			"anyway, and read the num_cpu and note fields before comparing results", out, numCPU)
	}
	return nil
}

// parScanSource is the slice of the scan interface the sweep times: the
// single-file executor and the shard-set source both satisfy it.
type parScanSource interface {
	NumVertices() int
	ForEachBatch(fn func([]gio.Record) error) error
}

// timeParScan measures one full scan folding IDs and degrees.
func timeParScan(src parScanSource, name string) (int64, error) {
	var sink uint64
	start := time.Now()
	err := src.ForEachBatch(func(batch []gio.Record) error {
		for _, r := range batch {
			sink += uint64(r.ID) + uint64(len(r.Neighbors))
		}
		return nil
	})
	elapsed := time.Since(start).Nanoseconds()
	if err != nil {
		return 0, err
	}
	if sink == 0 && src.NumVertices() > 0 {
		return 0, fmt.Errorf("bench: parallel %s scan decoded nothing", name)
	}
	return elapsed, nil
}
