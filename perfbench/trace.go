package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own call into the layer. Times are nanoseconds
// since the run began; spans of one request share Req, and Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory, one buffer per worker so recording
// takes no lock. It keeps the spans of one request in every `every`
// (all spans of a kept request, so self times stay exact). A nil
// tracer records nothing.
type tracer struct {
	bufs  [][]span
	every uint64
	ids   atomic.Uint64
}

// childIDs start high so they never collide with request ids, which
// the engine also uses as its root spans' ids.
const childIDBase = 1 << 62

// newTracer sizes a tracer for nbuf concurrent recorders, keeping one
// request in every.
func newTracer(nbuf int, every uint64) *tracer {
	return &tracer{bufs: make([][]span, nbuf), every: max(every, 1)}
}

func (t *tracer) add(buf int, s span) {
	if t == nil || s.Req%t.every != 0 {
		return
	}
	t.bufs[buf] = append(t.bufs[buf], s)
}

// newID returns a fresh id for a span that is not a request's root.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return childIDBase + t.ids.Add(1)
}

// child records a span caused by the span parent of request req.
func (t *tracer) child(buf int, name string, start, end int64, parent, req uint64) {
	if t == nil {
		return
	}
	t.add(buf, span{Name: name, Start: start, End: end, ID: t.newID(), Parent: parent, Req: req})
}

func (t *tracer) spans() []span {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	return all
}

// writeJSONL writes every kept span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelf is one layer's share of the traced time.
type layerSelf struct {
	Layer  string
	Spans  int
	SelfNs int64
}

// MeanUs is the layer's self time per span in microseconds.
func (l layerSelf) MeanUs() float64 {
	if l.Spans == 0 {
		return 0
	}
	return float64(l.SelfNs) / float64(l.Spans) / 1e3
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes computes each layer's self time: every span's duration
// minus the part of it its child spans cover (overlapping children are
// counted once, and clipped to the parent).
func selfTimes(spans []span) []layerSelf {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	acc := make(map[string]*layerSelf)
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		l := acc[layerOf(s.Name)]
		if l == nil {
			l = &layerSelf{Layer: layerOf(s.Name)}
			acc[l.Layer] = l
		}
		l.Spans++
		l.SelfNs += self
	}
	out := make([]layerSelf, 0, len(acc))
	for _, l := range acc {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// printSelfTimes renders the self-time table with each share's base.
func printSelfTimes(out io.Writer, ls []layerSelf) {
	var total int64
	for _, l := range ls {
		total += l.SelfNs
	}
	fmt.Fprintf(out, "layer self time (share of %.3f s traced in total):\n", float64(total)/1e9)
	for _, l := range ls {
		fmt.Fprintf(out, "  %-10s spans=%-8d self=%9.3f ms  mean=%8.3f us  share=%5.1f%% (%d of %d ns)\n",
			l.Layer, l.Spans, float64(l.SelfNs)/1e6, l.MeanUs(), 100*float64(l.SelfNs)/float64(max(total, 1)), l.SelfNs, total)
	}
}
