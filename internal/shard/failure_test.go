package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gio"
)

// failureWorkers are the worker counts every mid-scan failure must look the
// same at.
var failureWorkers = []int{1, 2, 4, 7}

// splitForFailure writes an n-vertex graph and splits it into 4 shards big
// enough that every shard's first unit spans more than one batch at every
// worker count in failureWorkers.
func splitForFailure(t *testing.T, flags uint32) (string, *Manifest) {
	t.Helper()
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 20000, flags)
	shardDir := filepath.Join(dir, "shards")
	man, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return shardDir, man
}

// scanOutcome is everything observable from one failed scan.
type scanOutcome struct {
	err   error
	stats gio.Stats
}

// runFailing scans set at the given worker count with fn and requires that
// no goroutine outlives the scan.
func runFailing(t *testing.T, set *Set, workers int, fn func([]gio.Record) error) scanOutcome {
	t.Helper()
	before := runtime.NumGoroutine()
	var stats gio.Counters
	err := set.Source(&stats, workers).ForEachBatch(fn)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("workers=%d: %d goroutines before the scan, %d after", workers, before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	return scanOutcome{err: err, stats: stats.Snapshot()}
}

// assertSameFailure requires every worker count's outcome to match the
// first one's error text and Stats exactly.
func assertSameFailure(t *testing.T, outs []scanOutcome) {
	t.Helper()
	want := outs[0]
	if want.err == nil {
		t.Fatal("scan did not fail")
	}
	if want.stats.Scans != 0 || want.stats.PhysicalScans != 0 {
		t.Errorf("failed scan counted scans=%d physical=%d, want 0/0", want.stats.Scans, want.stats.PhysicalScans)
	}
	for i, got := range outs[1:] {
		w := failureWorkers[i+1]
		if got.err == nil || got.err.Error() != want.err.Error() {
			t.Errorf("workers=%d: error %v, workers=1 got %v", w, got.err, want.err)
		}
		if got.stats != want.stats {
			t.Errorf("workers=%d: stats %+v, workers=1 got %+v", w, got.stats, want.stats)
		}
	}
}

// TestSourceCorruptShardMidScan damages a shard's payload after the set is
// open, keeping its size, so open-time validation passes and only the scan
// sees it. Every worker count must stop at the same point with the same
// error and the same Stats.
func TestSourceCorruptShardMidScan(t *testing.T) {
	shardDir, man := splitForFailure(t, 0)
	set, err := Open(shardDir, Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// An out-of-range id in the third shard's first record header.
	raw, err := os.OpenFile(filepath.Join(shardDir, man.Shards[2].Path), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, gio.HeaderSize); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	var outs []scanOutcome
	for _, w := range failureWorkers {
		seen := uint64(0)
		o := runFailing(t, set, w, func(batch []gio.Record) error {
			seen += uint64(len(batch))
			return nil
		})
		if !errors.Is(o.err, gio.ErrBadFormat) {
			t.Fatalf("workers=%d: error %v does not wrap ErrBadFormat", w, o.err)
		}
		if seen != man.Shards[2].Lo {
			t.Errorf("workers=%d: delivered %d records, want the %d before the damaged shard", w, seen, man.Shards[2].Lo)
		}
		outs = append(outs, o)
	}
	assertSameFailure(t, outs)
}

// TestSourceCallbackErrorMidScan returns a callback error at a fixed record
// (the first of the third shard): every worker count must surface that
// error verbatim with the same Stats.
func TestSourceCallbackErrorMidScan(t *testing.T) {
	shardDir, man := splitForFailure(t, 0)
	set, err := Open(shardDir, Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	stopAt := uint32(man.Shards[2].Lo)
	sentinel := errors.New("stop here")
	var outs []scanOutcome
	for _, w := range failureWorkers {
		o := runFailing(t, set, w, func(batch []gio.Record) error {
			for _, r := range batch {
				if r.ID == stopAt {
					return sentinel
				}
			}
			return nil
		})
		if o.err != sentinel {
			t.Fatalf("workers=%d: error %v, want the callback's", w, o.err)
		}
		outs = append(outs, o)
	}
	assertSameFailure(t, outs)
}

// TestSourceMmapCloseDuringScan closes a mapped set while a parallel scan is
// delivering zero-copy batches: Close must not block, the in-flight batches
// must stay readable (the run pins every mapping), and the scan must either
// complete or stop with ErrBadFormat.
func TestSourceMmapCloseDuringScan(t *testing.T) {
	for _, flags := range []uint32{0, gio.FlagCompressed} {
		t.Run(fmt.Sprintf("flags=%#x", flags), func(t *testing.T) {
			shardDir, _ := splitForFailure(t, flags)
			set, err := Open(shardDir, Options{BlockSize: 4096, Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			if !set.MmapActive() {
				set.Close()
				t.Skip("mmap unavailable on this platform/build")
			}

			firstBatch := make(chan struct{})
			scanDone := make(chan error, 1)
			go func() {
				var once sync.Once
				scanDone <- set.Source(nil, 4).ForEachBatch(func(batch []gio.Record) error {
					once.Do(func() { close(firstBatch) })
					var sink uint64
					for _, r := range batch {
						for _, nb := range r.Neighbors {
							sink += uint64(nb)
						}
					}
					_ = sink
					return nil
				})
			}()

			<-firstBatch
			if err := set.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if set.MmapActive() {
				t.Fatal("mappings still active after Close")
			}
			if err := <-scanDone; err != nil && !errors.Is(err, gio.ErrBadFormat) {
				t.Fatalf("scan error = %v, want ErrBadFormat-wrapped stop (or completion)", err)
			}
		})
	}
}
