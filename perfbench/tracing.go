package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// operation share Op; Parent is the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's name belongs to: the part before "/".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, "/")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one pointer test per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside span name and returns its wall time, which is
// measured whether or not the tracer records. fn receives the span id
// so nested calls can name it as their parent.
func (t *tracer) timed(name string, parent, op int, fn func(id int)) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfByLayer sums each layer's self time: a span's duration minus the
// part of its interval that its child spans cover.
func selfByLayer(spans []span) map[string]time.Duration {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(x, y iv) int { return int(x.a - y.a) })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			a, b := max(c.a, reach), min(c.b, s.End)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Machine  string           `json:"machine"`
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns_by_layer"`
	Spans    []span           `json:"spans"`
}

// write saves the spans and the per-layer self times to path.
func (t *tracer) write(path, workload string, seed int64) (map[string]time.Duration, error) {
	spans := t.closed()
	self := selfByLayer(spans)
	tf := traceFile{Machine: machine(), Workload: workload, Seed: seed, SelfNs: make(map[string]int64), Spans: spans}
	for l, d := range self {
		tf.SelfNs[l] = d.Nanoseconds()
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, data, 0o644)
}
