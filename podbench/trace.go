package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Trace;
// Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced runs pay one nil check per call site. It is
// safe for concurrent use: shard legs end on transport goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span.
func (t *tracer) add(name, tag string, parent, trace int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name, Tag: tag,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// reserve allocates a span ID before the span's children are recorded; fill
// completes it. Children can then name their parent while it is open.
func (t *tracer) reserve(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name})
	return id
}

func (t *tracer) fill(id int, tag string, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Tag = tag
	s.Start = start.Sub(t.epoch).Nanoseconds()
	s.End = end.Sub(t.epoch).Nanoseconds()
}

// timed runs fn inside a child span of parent.
func (t *tracer) timed(name string, parent, trace int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, "", parent, trace, start, time.Now())
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap (concurrent
// shard legs), so the covered part is the length of the union of the
// children's intervals, clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(coveredNs(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// coveredNs is the length of the union of ivs clipped to [lo, hi].
func coveredNs(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := append([][2]int64(nil), ivs...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	cur := lo
	for _, iv := range c {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// byName groups span durations (and self times) in milliseconds by span name,
// optionally restricted to one tag ("" matches every tag).
func byName(spans []span, self map[int]time.Duration, name, tag string) (dur, selfMs []float64) {
	for _, s := range spans {
		if s.Name != name || (tag != "" && s.Tag != tag) {
			continue
		}
		dur = append(dur, ms(s.dur()))
		selfMs = append(selfMs, ms(self[s.ID]))
	}
	return dur, selfMs
}

// selfSummary is the per-span-name table written with the trace: count,
// median duration and median and total self time.
type selfRow struct {
	Count      int     `json:"count"`
	P50Ms      float64 `json:"p50_ms"`
	SelfP50Ms  float64 `json:"self_p50_ms"`
	SelfSumMs  float64 `json:"self_sum_ms"`
	TotalSumMs float64 `json:"total_sum_ms"`
}

func selfSummary(spans []span, self map[int]time.Duration) map[string]selfRow {
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	out := make(map[string]selfRow, len(names))
	for name := range names {
		d, sf := byName(spans, self, name, "")
		var ds, ss float64
		for i := range d {
			ds += d[i]
			ss += sf[i]
		}
		out[name] = selfRow{Count: len(d), P50Ms: median(d), SelfP50Ms: median(sf), SelfSumMs: ss, TotalSumMs: ds}
	}
	return out
}

func writeTrace(path string, spans []span, summary map[string]selfRow) error {
	data, err := json.Marshal(struct {
		Spans []span             `json:"spans"`
		Self  map[string]selfRow `json:"self"`
	}{spans, summary})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
