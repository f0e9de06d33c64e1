package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark spent inside a call into a layer.
// A mark is a span with End == Start. Times are nanoseconds since the
// tracer's base; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	on   atomic.Bool
	run  string
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, run string) *tracer {
	t := &tracer{run: run, base: time.Now()}
	t.on.Store(on)
	return t
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// record stores a finished span with explicit times and returns its id.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: t.ns(start), End: t.ns(end)})
	return id
}

// begin opens a span now; finish closes it.
func (t *tracer) begin(name string, parent int64) int64 {
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// mark records an instantaneous event under parent.
func (t *tracer) mark(name string, parent int64, at time.Time) {
	t.record(name, parent, at, at)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int64, fn func(id int64)) {
	id := t.begin(name, parent)
	fn(id)
	t.finish(id)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover (overlapping
// children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coveredNs(s.Start, s.End, children[s.ID])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to [start, end].
func coveredNs(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the spans as JSON lines in path and returns the self-time
// summary.
func (t *tracer) write(path string) (map[string]time.Duration, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return selfTimes(spans), nil
}
