package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one operation (a call, a solve, a
// job) share Op; Parent is 0 for an operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call site, so untraced runs
// measure the program, not the tracer.
type tracer struct {
	on   bool
	base time.Time

	mu     sync.Mutex
	nextID int64
	nextOp int64
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// active is an open span: its identity is fixed at begin so children
// can name it as their parent before it ends.
type active struct {
	id, parent, op int64
	name           string
	start          time.Time
}

// newOp returns a fresh operation id (0 when tracing is off).
func (t *tracer) newOp() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span under parent (0 for an operation root).
func (t *tracer) begin(name string, parent, op int64) active {
	if !t.on {
		return active{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return active{id: id, parent: parent, op: op, name: name, start: time.Now()}
}

// end closes a span opened by begin.
func (t *tracer) end(a active) {
	if !t.on {
		return
	}
	t.add(a.id, a.name, a.parent, a.op, a.start, time.Now())
}

// child records a span whose bounds the program reported rather than
// the benchmark observed (a job's queue and run intervals, from its
// response).
func (t *tracer) child(name string, parent, op int64, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.add(id, name, parent, op, start, end)
}

func (t *tracer) add(id int64, name string, parent, op int64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfByDepth returns, for operation roots (depth 0), their children
// (depth 1) and everything below (depth 2), the summed self time in
// nanoseconds: a span's duration minus the part of it its children
// cover. It also returns the number of operation roots.
func (t *tracer) selfByDepth() (self [3]float64, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]*span, len(t.spans))
	kids := make(map[int64][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	depth := func(s *span) int {
		d := 0
		for p := s.Parent; p != 0 && d < 2; d++ {
			ps, ok := byID[p]
			if !ok {
				break
			}
			p = ps.Parent
		}
		return d
	}
	for i := range t.spans {
		s := &t.spans[i]
		d := depth(s)
		if d == 0 {
			ops++
		}
		self[d] += float64(s.End-s.Start) - covered(s, kids[s.ID])
	}
	return self, ops
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, children []*span) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return float64(total)
}

// write dumps every span as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
