package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a client op, a stage of
// the service read back from its own trace, or a replayed call into one
// layer. IDs are 1-based; Parent 0 marks a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// begin opens a span that end closes.
func (r *recorder) begin(name string, parent int) int {
	now := time.Now()
	return r.add(name, parent, now, now)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
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

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may nest, overlap each
// other (concurrent stages) or stick out of their parent (clock skew
// between the client and the service); only their union inside the
// parent's interval counts, so self time is never negative.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the intervals of kids clipped
// to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// stageTotals sums self time and counts spans per name.
type stageTotals struct {
	n    int
	self time.Duration
}

func totalsByName(spans []span) map[string]stageTotals {
	self := selfTimes(spans)
	out := make(map[string]stageTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.n++
		t.self += self[i]
		out[s.Name] = t
	}
	return out
}

// mean is the mean self time of the spans, in unit.
func (t stageTotals) mean(unit time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.self) / float64(t.n) / float64(unit)
}
