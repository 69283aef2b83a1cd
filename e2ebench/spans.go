package main

// Span recorder for traced runs. Spans are kept in memory and written out
// as one JSON file when the run ends; each has a name, start and end
// offsets from the start of the run, its parent, and the count of
// operations it covered.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

type spanStore struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// spanLog records spans into a shared store as children of one parent. A
// nil *spanLog records nothing, so untraced runs pass nil.
type spanLog struct {
	*spanStore
	parent int
}

func newSpanLog() *spanLog { return &spanLog{spanStore: &spanStore{t0: time.Now()}} }

// under returns a log whose spans are children of span id.
func (l *spanLog) under(id int) *spanLog { return &spanLog{spanStore: l.spanStore, parent: id} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: l.parent, Name: name, Start: now})
	return len(l.spans)
}

// end closes span id, recording how many operations it covered.
func (l *spanLog) end(id int, count int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.spans[id-1].Count = count
	l.mu.Unlock()
}

// duration returns the length of a closed span.
func (l *spanLog) duration(id int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans[id-1]
	return time.Duration(s.End - s.Start)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
