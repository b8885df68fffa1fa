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

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Parent is the ID of the span that
// caused it (0 for a root); Req is the request id the span belongs to,
// so replay spans name the HTTP request they re-execute.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs call the same code paths.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder clock: time since the recorder was created.
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// id reserves a span ID, for a parent whose children finish before it.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// record stores a finished span; id 0 allocates a fresh one.
func (r *recorder) record(id, parent int64, name, req string, start, end time.Duration) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// timed runs f inside a span and returns its duration.
func (r *recorder) timed(parent int64, name, req string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	if r != nil {
		s := start.Sub(r.epoch)
		r.record(0, parent, name, req, s, s+d)
	}
	return d
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a
// parent that fans out) are merged first, so covered time is never
// counted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		type iv struct{ a, b time.Duration }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// spanStats summarises the recorded spans by name.
type spanStats struct {
	spans []span
	self  map[int64]time.Duration
}

func newSpanStats(spans []span) *spanStats {
	return &spanStats{spans: spans, self: selfTimes(spans)}
}

// durs returns the durations (µs) of every span with this name.
func (st *spanStats) durs(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// selfDurs returns the self times (µs) of every span with this name.
func (st *spanStats) selfDurs(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, us(st.self[s.ID]))
		}
	}
	return out
}

// medianUS is the median duration (µs) of the named spans, 0 if none.
func (st *spanStats) medianUS(name string) float64 { return median(st.durs(name)) }

// dumpSpans writes the spans as JSON lines, one span per line, after a
// header line describing the run.
func dumpSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}
