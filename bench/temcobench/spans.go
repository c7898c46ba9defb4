package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"temco/internal/obs"
)

// span is one interval the harness recorded around a call it made into a
// layer's public API. Spans of one request share req; parent is the id of the
// span that caused this one, or -1.
type span struct {
	ID     int
	Parent int
	Name   string
	Req    int64
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory and writes them once, at the end. A nil
// recorder records nothing, which is how the untraced run is run: every
// method is safe on nil.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(parent int, name string, req int64) int {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Children may overlap each other (two
// callers inside one phase) and may stick out of the parent; the covered part
// is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// chromeEvent is one "X" (complete) event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxStepLanes bounds how many engine runs' per-step spans go into the trace
// file; densenet40 emits 396 spans per run and the file is for reading.
const maxStepLanes = 32

// writeChrome writes the harness spans, and under them the per-step spans the
// shipped obs.Tracer recorded (steps, placed on the harness clock by
// stepOffset), as one Chrome trace.
func (r *recorder) writeChrome(path string, steps []obs.Span, stepOffset time.Duration) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	spans := r.snapshot()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "harness", Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Req, Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	lanes := make(map[uint64]bool)
	for _, sp := range steps {
		if !lanes[sp.Lane] {
			if len(lanes) == maxStepLanes {
				continue
			}
			lanes[sp.Lane] = true
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: sp.Cat + "." + sp.Kind, Ph: "X", Ts: us(sp.Start + stepOffset), Dur: us(sp.Dur),
			Pid: 2, Tid: int64(sp.Lane), Args: map[string]any{"step": sp.Step, "arena_off": sp.ArenaOff, "copy_bytes": sp.CopyBytes},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
