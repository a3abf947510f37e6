// Package shard presents a set of vertex-range shard files as one logical
// graph: a JSON manifest (MANIFEST.shards) lists the shards in scan order,
// an opener validates that their ranges tile [0, vertices) exactly, and a
// Source hands the shards' partitions, in manifest order, to the parallel
// scan executor (exec.Run) — each shard decoded by the existing pipelined
// or mmap engine — which merges batches back into the exact scan order of
// the merged single file. Every algorithm, the pass-graph
// scheduler, scan accounting and ctx cancellation work unchanged on top; the
// parity suite enforces it result for result and counter for counter.
//
// The manifest persists each shard's partition cut table (the same table
// single-file footers carry), so a cold open performs zero planning scans:
// partitioning is answered from metadata written at split time.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gio"
)

// ManifestName is the file name a shard manifest is stored under. A
// directory containing one is a sharded graph; DiscoverGraphs treats it like
// a single .adj file.
const ManifestName = "MANIFEST.shards"

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// Format strings for ShardEntry.Format.
const (
	FormatRaw        = "raw"
	FormatCompressed = "compressed"
)

// CutTable is a shard's persisted partition plan: parallel arrays of
// cumulative record counts and absolute byte offsets, entry 0 at
// (0, gio.HeaderSize), the last entry at (records, payload end). It is the
// same table single-file footers store, serialized as JSON here so the
// manifest alone can partition a shard whose file predates footers.
type CutTable struct {
	Records []uint64 `json:"records"`
	Offsets []int64  `json:"offsets"`
}

// ShardEntry describes one shard file: a contiguous run of the merged
// graph's scan positions (equal to vertex IDs for files in ID order).
type ShardEntry struct {
	// Path is the shard file's path, relative to the manifest's directory.
	Path string `json:"path"`
	// Lo and Hi bound the shard's scan-position range [lo, hi): the shard
	// holds records lo..hi-1 of the merged scan order.
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	// Records is the record count, always hi-lo.
	Records uint64 `json:"records"`
	// Bytes is the shard file's on-disk size at write time.
	Bytes int64 `json:"bytes"`
	// Format is "raw" or "compressed".
	Format string `json:"format"`
	// Digest is the shard file's SHA-256 content digest at write time (the
	// same digest gio.File.ContentDigest computes). The opener's combined
	// digest is derived from the shards' actual digests; a mismatch against
	// this recorded value is surfaced as corruption.
	Digest string `json:"digest"`
	// Cuts is the shard's partition cut table, persisted at write time so
	// cold opens never pay a planning scan.
	Cuts *CutTable `json:"cuts,omitempty"`
}

// Manifest is the on-disk MANIFEST.shards document.
type Manifest struct {
	Version int `json:"version"`
	// Vertices and Edges describe the merged graph; Flags are the gio
	// format flags every shard must agree on.
	Vertices uint64       `json:"vertices"`
	Edges    uint64       `json:"edges"`
	Flags    uint32       `json:"flags"`
	Shards   []ShardEntry `json:"shards"`
}

// Validate checks the manifest's structural invariants: a supported version,
// at least one shard, ranges that tile [0, vertices) contiguously without
// overlap, per-shard record counts matching their ranges, and recognized
// formats consistent with the flags.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("unsupported manifest version %d", m.Version)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("manifest lists no shards")
	}
	wantFormat := FormatRaw
	if m.Flags&gio.FlagCompressed != 0 {
		wantFormat = FormatCompressed
	}
	var next uint64
	for i, s := range m.Shards {
		if s.Path == "" {
			return fmt.Errorf("shard %d has no path", i)
		}
		if s.Lo != next {
			return fmt.Errorf("shard %d (%s) starts at %d, want %d: ranges must be contiguous and non-overlapping", i, s.Path, s.Lo, next)
		}
		if s.Hi <= s.Lo {
			return fmt.Errorf("shard %d (%s) has empty or inverted range [%d,%d)", i, s.Path, s.Lo, s.Hi)
		}
		if s.Records != s.Hi-s.Lo {
			return fmt.Errorf("shard %d (%s) claims %d records for range [%d,%d)", i, s.Path, s.Records, s.Lo, s.Hi)
		}
		if s.Format != wantFormat {
			return fmt.Errorf("shard %d (%s) has format %q, manifest flags say %q", i, s.Path, s.Format, wantFormat)
		}
		next = s.Hi
	}
	if next != m.Vertices {
		return fmt.Errorf("shards cover [0,%d), manifest says %d vertices", next, m.Vertices)
	}
	return nil
}

// TotalBytes returns the summed on-disk size of all shard files as recorded
// at write time.
func (m *Manifest) TotalBytes() int64 {
	var n int64
	for _, s := range m.Shards {
		n += s.Bytes
	}
	return n
}

// IsManifestPath reports whether path names a shard manifest: the manifest
// file itself, or a directory containing one.
func IsManifestPath(path string) bool {
	fi, err := os.Stat(path)
	if err != nil {
		return false
	}
	if fi.IsDir() {
		fi, err = os.Stat(filepath.Join(path, ManifestName))
		return err == nil && !fi.IsDir()
	}
	return filepath.Base(path) == ManifestName
}

// LoadManifest reads and validates a manifest document. path may be the
// manifest file itself or a directory containing one.
func LoadManifest(path string) (*Manifest, string, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, ManifestName)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("shard: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, "", fmt.Errorf("shard: %s: parse manifest: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, "", fmt.Errorf("shard: %s: %w", path, err)
	}
	return &m, path, nil
}

// WriteManifest atomically publishes the manifest at path (the final
// MANIFEST.shards location) via temp + fsync + rename + dir fsync, so a
// crash mid-write leaves either the previous manifest or none — never a
// truncated one.
func WriteManifest(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("shard: refusing to write invalid manifest: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := gio.CommitFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
