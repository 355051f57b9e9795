package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans nest:
// Parent is the enclosing span's ID (0 at a step's root), and Op is
// the step the call served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opCounters is the simulator counter snapshot taken after one step.
type opCounters struct {
	Op       int              `json:"op"`
	Counters map[string]int64 `json:"counters"`
}

// tracer records spans and per-step counters in memory; they are
// written when the run ends. A nil tracer records nothing, which is
// how untraced windows run. The benchmark drives one layer call at a
// time, so the open-span stack is a plain slice.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int // indices into spans
	op       int
	counters []opCounters
	profile  bytes.Buffer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// beginOp starts a new step; spans opened until the next beginOp
// carry its ID.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// record keeps the counter snapshot of the current step.
func (t *tracer) record(c map[string]int64) {
	if t != nil {
		t.counters = append(t.counters, opCounters{Op: t.op, Counters: c})
	}
}

// durations lists the durations of every span with this name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total sums the durations of every span with this name, in ms.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

func (t *tracer) startProfile() error {
	return pprof.StartCPUProfile(&t.profile)
}

// stopProfile ends the CPU profile and buckets its samples by layer.
func (t *tracer) stopProfile() (*layerProfile, error) {
	pprof.StopCPUProfile()
	return bucketProfile(t.profile.Bytes())
}

// write stores the spans, counters and raw profile under dir.
func (t *tracer) write(dir, stem string, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(struct {
		Spans    []span       `json:"spans"`
		Counters []opCounters `json:"counters"`
	}{t.spans, t.counters})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+"-trace.json"), doc, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, stem+"-cpu.pprof"), profile, 0o644); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	return nil
}
