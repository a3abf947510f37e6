package gio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteGraph writes g to path in the given scan order (nil means vertex-ID
// order). Within each record, neighbors are ordered by ascending degree with
// ID as a tiebreak, as Section 4.1 of the paper prescribes. flags should
// include FlagDegreeSorted when order is an ascending-degree order.
func WriteGraph(path string, g *graph.Graph, order []uint32, flags uint32, stats *Counters) error {
	w, err := NewWriter(path, flags, 0, stats)
	if err != nil {
		return err
	}
	write := func(v uint32) error {
		ns := g.Neighbors(v)
		sorted := make([]uint32, len(ns))
		copy(sorted, ns)
		sort.Slice(sorted, func(i, j int) bool {
			di, dj := g.Degree(sorted[i]), g.Degree(sorted[j])
			if di != dj {
				return di < dj
			}
			return sorted[i] < sorted[j]
		})
		return w.Append(v, sorted)
	}
	if order == nil {
		for v := 0; v < g.NumVertices(); v++ {
			if err := write(uint32(v)); err != nil {
				w.Close()
				return err
			}
		}
	} else {
		if len(order) != g.NumVertices() {
			w.Close()
			return fmt.Errorf("gio: order has %d entries for %d vertices", len(order), g.NumVertices())
		}
		for _, v := range order {
			if err := write(v); err != nil {
				w.Close()
				return err
			}
		}
	}
	return w.Close()
}

// DegreeOrder returns g's vertex IDs sorted by ascending degree (ID
// tiebreak) — the scan order required by the Greedy algorithm.
func DegreeOrder(g *graph.Graph) []uint32 {
	order := make([]uint32, g.NumVertices())
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// WriteGraphSorted writes g to path in ascending-degree scan order and sets
// FlagDegreeSorted.
func WriteGraphSorted(path string, g *graph.Graph, stats *Counters) error {
	return WriteGraph(path, g, DegreeOrder(g), FlagDegreeSorted, stats)
}

// LoadGraph reads an entire adjacency file into memory. Intended for small
// graphs, tools and tests; semi-external algorithms use File.Scan instead,
// and runs that need a context, hooks or a shard set load through
// core.LoadGraphSource.
func LoadGraph(path string, stats *Counters) (*graph.Graph, error) {
	f, err := Open(path, 0, stats)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := graph.NewBuilder(f.NumVertices())
	err = f.ForEachBatch(func(batch []Record) error {
		for _, r := range batch {
			for _, n := range r.Neighbors {
				b.AddEdge(r.ID, n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// BatchSource is the slice of the scan interface the degree pass needs.
// Both *File and the parallel partitioned executor (internal/exec) satisfy
// it, so degree collection can run on either engine.
type BatchSource interface {
	NumVertices() int
	ForEachBatch(fn func([]Record) error) error
}

// ReadDegrees scans the file once and returns the degree of every vertex,
// indexed by vertex ID. This is an O(|V|) in-memory structure allowed by the
// semi-external model.
func ReadDegrees(f BatchSource) ([]uint32, error) {
	deg := make([]uint32, f.NumVertices())
	err := f.ForEachBatch(func(batch []Record) error {
		for _, r := range batch {
			deg[r.ID] = uint32(len(r.Neighbors))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return deg, nil
}

// ReadEdgeListText parses a whitespace-separated edge list ("u v" per line;
// '#' or '%' start comments) into a Graph. Vertex IDs must be non-negative
// integers; the graph has max(id)+1 vertices.
func ReadEdgeListText(r io.Reader) (*graph.Graph, error) {
	type e struct{ u, v uint32 }
	var edges []e
	maxID := int64(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: edge list line %d: need two fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: edge list line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: edge list line %d: %v", line, err)
		}
		if u < 0 || v < 0 || u > 1<<31 || v > 1<<31 {
			return nil, fmt.Errorf("gio: edge list line %d: vertex id out of range", line)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, e{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: reading edge list: %w", err)
	}
	b := graph.NewBuilder(int(maxID + 1))
	for _, ed := range edges {
		b.AddEdge(ed.u, ed.v)
	}
	return b.Build(), nil
}

// ImportEdgeListFile reads a text edge list from src and writes a
// degree-sorted adjacency file to dst.
func ImportEdgeListFile(src, dst string, stats *Counters) error {
	f, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("gio: open %s: %w", src, err)
	}
	defer f.Close()
	g, err := ReadEdgeListText(f)
	if err != nil {
		return err
	}
	return WriteGraphSorted(dst, g, stats)
}

// WriteEdgeListText writes g as a text edge list (one "u v" per line, u < v).
func WriteEdgeListText(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var outer error
	g.Edges(func(u, v uint32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			outer = err
			return false
		}
		return true
	})
	if outer != nil {
		return outer
	}
	return bw.Flush()
}
