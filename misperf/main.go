// Command misperf is the repository's benchmark: it builds seeded PLRG
// stand-ins of the paper's Table 4 graphs, drives the program through its
// public packages (mis, gio, exec, shard, server, cache) on one of four
// workloads, checks every output, and prints its metrics as one JSON line.
//
//	misperf --workload swap-dense --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same jobs
// with spans around every layer call, adds the layer probes, and prints the
// per-layer metrics instead. README.md explains the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	mis "repro"
)

// config is what a run was asked to do.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

// jobCount is the fixed number of jobs a run makes: enough to fill the
// requested seconds at the workload's nominal job time on a 2-CPU host,
// fixed by the arguments alone so every count repeats exactly.
func (c config) jobCount(nominal time.Duration, floor int) int {
	return max(floor, int(time.Duration(c.seconds)*time.Second/nominal))
}

// workload is one traffic mix. setup builds its inputs in dir and opens
// what the timed phase needs; run makes the fixed job count and checks each
// output (tr is nil in the untraced run); probe runs the layer probes of
// the traced run; close releases what setup opened.
type workload interface {
	setup(ctx context.Context, dir string) error
	run(ctx context.Context, tr *tracer) (*report, error)
	probe(ctx context.Context, tr *tracer, rep *report, scratch string) error
	close()
}

var workloads = map[string]func(config) workload{
	"swap-dense":    func(c config) workload { return &swapDense{cfg: c} },
	"scan-sparse":   func(c config) workload { return &scanSparse{cfg: c} },
	"serve-mixed":   func(c config) workload { return &serveMixed{cfg: c} },
	"journal-churn": func(c config) workload { return &journalChurn{cfg: c} },
}

// report is what a workload's timed phase produced.
type report struct {
	attempted, failed int
	jobMS             []float64     // latency of each job (executes on serve-mixed)
	wall              time.Duration // timed phase, for jobs_per_s
	isSize            int
	physScansPerJob   float64
	bytesReadPerJob   float64
	// tracedMS and plainMS split jobMS in the traced run, which traces
	// every other job so the two halves give the tracing overhead.
	tracedMS, plainMS []float64
	// detail holds workload-specific end-to-end figures, printed on the
	// detail line of every run.
	detail map[string]float64
	// layer holds per-layer metrics (traced run only).
	layer map[string]float64
	// rssEvery is the number of jobs in one memory window; rssPeaksMB
	// holds each window's peak resident set, and harness the time spent
	// between windows, which rep.wall excludes.
	rssEvery   int
	rssPeaksMB []float64
	harness    time.Duration
}

func newReport(rssEvery int) *report {
	return &report{detail: map[string]float64{}, layer: map[string]float64{}, rssEvery: rssEvery}
}

// fail counts n failed jobs and says why on stderr.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	warnf(format, args...)
}

// warnf reports a failed check on stderr.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "misperf: FAIL: "+format+"\n", args...)
}

// traceEveryOther returns tr for even jobs and nil for odd ones, so the
// traced run's two halves give the tracing overhead.
func traceEveryOther(tr *tracer, i int) *tracer {
	if i%2 == 0 {
		return tr
	}
	return nil
}

// addJob records one job's latency, and in the traced run which half it
// belongs to; every rssEvery jobs it closes a memory window.
func (r *report) addJob(jt, tr *tracer, d time.Duration) {
	r.jobMS = append(r.jobMS, ms(d))
	if len(r.jobMS)%r.rssEvery == 0 {
		r.sampleRSS()
	}
	switch {
	case tr == nil:
	case jt != nil:
		r.tracedMS = append(r.tracedMS, ms(d))
	default:
		r.plainMS = append(r.plainMS, ms(d))
	}
}

// setHash fingerprints a result's membership vector.
func setHash(r *mis.Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(r.InSet))
	for i, in := range r.InSet {
		if in {
			buf[i] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

type unitDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, printed by the untraced run.
var endToEnd = []unitDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"ok_share", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"is_size", "vertices"},
	{"physical_scans_per_job", "count"},
	{"bytes_read_per_job", "bytes"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
}

// perLayer lists the per-layer metrics, printed by the traced run. A layer
// the workload does not exercise reports 0.
var perLayer = []unitDef{
	{"gio.scan_ms", "ms"},
	{"gio.bytes_per_scan", "bytes"},
	{"gio.digest_ms", "ms"},
	{"exec.scan_ms", "ms"},
	{"exec.speedup", "ratio"},
	{"shard.scan_ms", "ms"},
	{"shard.speedup", "ratio"},
	{"shard.open_ms", "ms"},
	{"pipeline.logical_scans_per_job", "count"},
	{"pipeline.carried_scans_per_job", "count"},
	{"pipeline.fusion_ratio", "ratio"},
	{"pipeline.carried_round_share", "ratio"},
	{"core.greedy_ms", "ms"},
	{"core.onek_ms", "ms"},
	{"core.twok_ms", "ms"},
	{"core.bound_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.round_ms", "ms"},
	{"core.cpu_ms_per_scan", "ms"},
	{"semiext.memory_bytes", "bytes"},
	{"semiext.sc_high_water", "vertices"},
	{"mis.open_ms", "ms"},
	{"cache.hit_share", "ratio"},
	{"cache.shared", "count"},
	{"cache.evictions", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_handler_us", "us"},
	{"server.exec_overhead_ms", "ms"},
	{"server.refused_share", "ratio"},
	{"server.gen_late_ms", "ms"},
	{"wal.update_us", "us"},
	{"wal.sync_ms", "ms"},
	{"wal.bytes_per_update", "bytes"},
	{"dynamic.evictions_per_update", "ratio"},
	{"dynamic.repair_ms", "ms"},
	{"journal.compact_ms", "ms"},
	{"journal.bytes_written_per_update", "bytes"},
	{"journal.delta_edges_at_compact", "count"},
	{"journal.stall_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// setupReps is how many times a run builds its inputs; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// runDeadline bounds a whole run, so a hang fails instead of stalling.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: swap-dense, scan-sparse, serve-mixed or journal-churn")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase; fixes the job count")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	workRoot := fs.String("workdir", filepath.Join(".bench_build", "misperf"), "directory for inputs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "misperf: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}

	work := filepath.Join(*workRoot, "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	res, detail, err := measure(ctx, mk, cfg, work, filepath.Join(*workRoot, "traces"), *name)
	if err != nil {
		fmt.Fprintf(stderr, "misperf: %s: %v\n", *name, err)
		return 1
	}
	host, _ := json.Marshal(hostInfo(work))
	fmt.Fprintf(stdout, "# host %s\n", host)
	det, _ := json.Marshal(detail)
	fmt.Fprintf(stdout, "# detail %s\n", det)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "misperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up setupReps times, runs the timed phase on
// the last set-up, and turns the report into the printed metrics.
func measure(ctx context.Context, mk func(config) workload, cfg config, work, traceDir, name string) (*result, map[string]any, error) {
	var (
		w      workload
		setups []float64
	)
	for i := range setupReps {
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		w = mk(cfg)
		start := time.Now()
		err := w.setup(ctx, dir)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupReps-1 {
			w.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
	}
	defer w.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetHWM(); err != nil {
		return nil, nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	steal0, total0 := hostSteal()
	rep, err := w.run(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	steal1, total1 := hostSteal()
	if rep.attempted < 1 || len(rep.rssPeaksMB) == 0 {
		return nil, nil, errors.New("no job ran, or too few to close a memory window")
	}

	detail := map[string]any{"workload": name, "seed": cfg.seed, "jobs": len(rep.jobMS), "setup_s_each": setups,
		"rss_windows": len(rep.rssPeaksMB), "rss_max_window_mb": slices.Max(rep.rssPeaksMB)}
	if total1 > total0 {
		detail["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	mergeDetail(detail, rep.detail)
	tailMS, tailPct, tailN, ok := tail(rep.jobMS, tailSamples)
	if !ok {
		return nil, nil, fmt.Errorf("%d jobs give no tail with %d samples beyond it", len(rep.jobMS), tailSamples)
	}
	detail["job_tail_percentile"], detail["job_tail_n"] = tailPct, tailN
	q1, p50, q3 := quartiles(rep.jobMS)
	detail["job_q1_ms"], detail["job_q3_ms"] = q1, q3

	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		e2e := map[string]float64{
			"setup_s":                median(setups),
			"jobs_per_s":             float64(len(rep.jobMS)) / (rep.wall - rep.harness).Seconds(),
			"ok_share":               float64(rep.attempted-rep.failed) / float64(rep.attempted),
			"peak_rss_mb":            median(rep.rssPeaksMB),
			"is_size":                float64(rep.isSize),
			"physical_scans_per_job": rep.physScansPerJob,
			"bytes_read_per_job":     rep.bytesReadPerJob,
			"job_p50_ms":             p50,
			"job_tail_ms":            tailMS,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, detail, nil
	}

	if err := w.probe(ctx, tr, rep, filepath.Join(work, "probe")); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	mergeDetail(detail, rep.detail)
	rep.layer["trace.overhead_ratio"] = median(rep.tracedMS) / median(rep.plainMS)
	detail["traced_job_p50_ms"], detail["untraced_job_p50_ms"] = median(rep.tracedMS), median(rep.plainMS)
	detail["self_ms"] = tr.selfMS()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	spans := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := tr.write(spans); err != nil {
		return nil, nil, err
	}
	detail["spans"] = spans
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{rep.layer[m.name], m.unit}
	}
	return res, detail, nil
}

func mergeDetail(dst map[string]any, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// sampleRSS ends a memory window: it records the peak resident set since
// the window began and starts the next window from a collected heap, so
// every window's peak is its own jobs' live data and garbage rather than
// whatever earlier windows left for the runtime to return. Both happen
// between jobs; the time they take is kept out of the timed phase.
func (r *report) sampleRSS() {
	start := time.Now()
	defer func() { r.harness += time.Since(start) }()
	kb, err := readHWMKB()
	if err == nil {
		debug.FreeOSMemory()
		err = resetHWM()
	}
	if err != nil {
		warnf("peak RSS: %v", err)
		return
	}
	r.rssPeaksMB = append(r.rssPeaksMB, float64(kb)/1024)
}

// resetHWM sets the process's peak resident set (VmHWM) back to its
// current resident set.
func resetHWM() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// readHWMKB reads the process's peak resident set (VmHWM) in KiB.
func readHWMKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// hostSteal reads the machine's CPU time stolen by the hypervisor and its
// total CPU time, in ticks, from /proc/stat; zeros when unavailable. Steal
// over the timed phase is reported so that a slow run on a shared host can
// be told apart from a slow program.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostInfo records what the figures were measured on.
func hostInfo(dir string) map[string]any {
	info := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Dir(dir), &st); err == nil {
		info["work_fs"] = fsName(int64(st.Type))
	}
	return info
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
