package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around each call it makes into a
// layer: name, start, end, the span that caused it, and the operation
// (request) it belongs to. Spans stay in memory and are written out once,
// when the traced run ends. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int64  `json:"op"`     // operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// durations returns the durations of every closed span with the name, in
// microseconds.
func (t *tracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
