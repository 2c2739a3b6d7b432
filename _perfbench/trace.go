package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Parent indexes the enclosing span (-1 for a root); Op identifies the
// operation the span belongs to (the request id for serve-live).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs execute the same code with no span bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setOp relabels span id with the operation id learnt after it opened.
func (t *tracer) setOp(id int, op int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Op = op
	t.mu.Unlock()
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	Count   int
	TotalNS int64
	SelfNS  int64
	Durs    []float64 // seconds, in record order
}

// summarize groups closed spans by name. A span's self time is its
// duration minus the part of it its child spans cover.
func (t *tracer) summarize() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalNS += d
		st.SelfNS += d - covered(s, t.spans, children[i])
		st.Durs = append(st.Durs, float64(d)/1e9)
	}
	return out
}

// covered returns how many nanoseconds of parent the child spans cover,
// counting overlapping children once.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// write saves the run record and every span as JSON under dir.
func (t *tracer) write(dir, name string, rec runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Record runRecord `json:"record"`
		Spans  []span    `json:"spans"`
	}{rec, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// Accessors read 0 (or nothing) for a name that recorded no span.
func (s *spanStats) count() int {
	if s == nil {
		return 0
	}
	return s.Count
}

func (s *spanStats) total() float64 {
	if s == nil {
		return 0
	}
	return float64(s.TotalNS) / 1e9
}

func (s *spanStats) self() float64 {
	if s == nil {
		return 0
	}
	return float64(s.SelfNS) / 1e9
}

func (s *spanStats) durs() []float64 {
	if s == nil {
		return nil
	}
	return s.Durs
}
