package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into the
// program's layers. Spans stay in memory and are written once, as a Chrome
// trace_event file, when the run ends. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

type spanRec struct {
	name       string
	id, parent int // parent 0 means a root span
	track      int
	start, end time.Time
	args       map[string]any
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, track int, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{name, id, parent, track, start, end, args})
	return id
}

// reserve allocates an id for a span whose children are recorded before
// it ends; fill completes it.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{})
	return len(t.spans)
}

func (t *tracer) fill(id int, name string, parent, track int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = spanRec{name, id, parent, track, start, end, args}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans and the run's counters to path.
func (t *tracer) write(path string, counters map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track, Args: args,
			Ts:  float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": counters})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
