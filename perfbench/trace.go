package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/mem"
	"repro/internal/workload"
)

// span is one timed interval of the traced run. Spans nest through
// Parent (0 for a root); spans belonging to one window or one grid cell
// share a Group id, so the window's generation child can be matched to
// it in the written-out trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is set on aggregated spans: the number of calls whose
	// durations were summed into [Start, End) instead of recording one
	// span per call.
	Calls uint64 `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span and returns its id; end closes it. Both are no-ops
// on a nil tracer, which untraced repetitions pass.
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Group: group, Name: name, Start: t.now()})
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = t.now()
	}
}

func (t *tracer) get(id int) span { return t.spans[id-1] }

// addAggregate records the calls folded into acc since its last reset as
// one child span of parent, then resets acc.
func (t *tracer) addAggregate(name string, parent int, acc *genAcc) {
	if acc.calls > 0 {
		t.add(span{Parent: parent, Group: t.get(parent).Group, Name: name, Start: acc.first, End: acc.first + acc.ns, Calls: acc.calls})
	}
	acc.reset()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once),
// indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans and the host block as one JSON document.
func (t *tracer) write(path string, host hostInfo) error {
	b, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// genAcc sums the host time of many generator calls so that one window
// gets one generation child span rather than one span per NextBatch.
type genAcc struct {
	tr    *tracer
	first int64 // start of the first call since reset
	ns    int64
	calls uint64
	ops   uint64
}

func (a *genAcc) reset() { a.first, a.ns, a.calls, a.ops = 0, 0, 0, 0 }

func (a *genAcc) add(start, end int64, ops int) {
	if a.calls == 0 {
		a.first = start
	}
	a.ns += end - start
	a.calls++
	a.ops += uint64(ops)
}

// timedSource wraps a workload.Source, timing every generator call into
// a shared accumulator.
type timedSource struct {
	workload.Source
	acc *genAcc
	// visits counts the Prewarm footprint lines this source declared.
	visits uint64
}

func (t *timedSource) Next(op *workload.Op) {
	s := t.acc.tr.now()
	t.Source.Next(op)
	t.acc.add(s, t.acc.tr.now(), 1)
}

func (t *timedSource) NextBatch(dst []workload.Op) int {
	s := t.acc.tr.now()
	n := t.Source.NextBatch(dst)
	t.acc.add(s, t.acc.tr.now(), n)
	return n
}

func (t *timedSource) Prewarm(visit func(addr mem.Addr, instr bool)) {
	s := t.acc.tr.now()
	var n uint64
	t.Source.Prewarm(func(addr mem.Addr, instr bool) {
		n++
		visit(addr, instr)
	})
	t.visits += n
	t.acc.add(s, t.acc.tr.now(), int(n))
}
