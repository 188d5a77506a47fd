package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run, recorded from the
// benchmark's side of a call into a layer.
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the recorder's epoch
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"` // index of the enclosing span; -1 at top level
	Op     int                `json:"op"`     // op id shared by one op's spans; -1 outside ops
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps a traced run's spans in memory; they are written once,
// at exit. Its methods do nothing on a nil recorder, so untraced runs
// pay one nil check per call site.
type recorder struct {
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newOp returns a fresh op id.
func (r *recorder) newOp() int {
	r.ops++
	return r.ops
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = r.now()
	}
}

// add records a finished span with explicit bounds.
func (r *recorder) add(name string, parent, op int, start, end int64) int {
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// count attaches a count the traced call returned to span id.
func (r *recorder) count(id int, key string, v float64) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// mark returns the current span count: a pass derives its metrics from
// the spans recorded after its mark.
func (r *recorder) mark() int { return len(r.spans) }

// named returns the spans called name recorded since from.
func (r *recorder) named(from int, name string) []*span {
	var out []*span
	for i := from; i < len(r.spans); i++ {
		if r.spans[i].Name == name {
			out = append(out, &r.spans[i])
		}
	}
	return out
}

// medianMS is the median duration of the spans called name since from.
func (r *recorder) medianMS(from int, name string) float64 {
	ss := r.named(from, name)
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.ms()
	}
	return median(v)
}

// medianCount is the median of one count over the spans called name.
func (r *recorder) medianCount(from int, name, key string) float64 {
	ss := r.named(from, name)
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.Counts[key]
	}
	return median(v)
}

// sumCount sums one count over the spans called name.
func (r *recorder) sumCount(from int, name, key string) float64 {
	t := 0.0
	for _, s := range r.named(from, name) {
		t += s.Counts[key]
	}
	return t
}

// writeFile writes every span as one JSON line to
// dir/trace-<workload>.jsonl.
func (r *recorder) writeFile(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
