package obs

import (
	"testing"

	"repro/internal/sim"
)

func TestProfilerCadence(t *testing.T) {
	r := NewRegistry()
	s := sim.NewStats()
	r.AttachStats(s)
	p := NewProfiler(r, s, 100)
	var depth int64
	calls := 0
	p.Register("q.depth", func(now sim.Cycle) int64 { calls++; return depth })

	depth = 5
	p.MaybeSample(0) // first period boundary: samples
	p.MaybeSample(1) // same period: skipped
	p.MaybeSample(99)
	if calls != 1 {
		t.Fatalf("sampler ran %d times inside one period, want 1", calls)
	}
	depth = 9
	p.MaybeSample(100) // next period
	if calls != 2 {
		t.Fatalf("sampler ran %d times after two periods, want 2", calls)
	}
	if got := r.Gauge("q.depth").Value(); got != 9 {
		t.Fatalf("latest gauge = %d, want 9", got)
	}
	if got := r.Histogram("q.depth.samples", DefaultCycleBuckets()).Count(); got != 2 {
		t.Fatalf("sample histogram count = %d, want 2", got)
	}
	if got := r.Snapshot()[sim.CtrProfilerSamples]; got != 2 {
		t.Fatalf("%s = %d, want 2", sim.CtrProfilerSamples, got)
	}
}

// One sample per period no matter how many cycles the simulation
// jumped — the stream depends only on period boundaries crossed, so
// the same event stream always yields the same samples.
func TestProfilerSkipsWholePeriods(t *testing.T) {
	r := NewRegistry()
	p := NewProfiler(r, nil, 10)
	calls := 0
	p.Register("x", func(now sim.Cycle) int64 { calls++; return 0 })
	p.MaybeSample(0)
	p.MaybeSample(95) // skipped 9 whole periods: still one sample
	p.MaybeSample(99) // same period as 95
	p.MaybeSample(100)
	if calls != 3 {
		t.Fatalf("sampler ran %d times, want 3 (at 0, 95, 100)", calls)
	}
}

func TestProfilerDuplicateRegisterKeepsFirst(t *testing.T) {
	r := NewRegistry()
	p := NewProfiler(r, nil, 10)
	p.Register("d", func(now sim.Cycle) int64 { return 1 })
	p.Register("d", func(now sim.Cycle) int64 { return 2 }) // ignored
	p.MaybeSample(0)
	if got := r.Gauge("d").Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1 (first sampler wins)", got)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.Register("x", func(now sim.Cycle) int64 { return 0 })
	p.MaybeSample(42)
	if p.Every() != 0 {
		t.Fatal("nil profiler Every() != 0")
	}
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.Trace() != nil || o.Profiler() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
}

func TestNewObserverDefaults(t *testing.T) {
	s := sim.NewStats()
	o := NewObserver(Config{}, s)
	if o.Registry() == nil || o.Profiler() == nil {
		t.Fatal("default observer missing registry or profiler")
	}
	s.IncID(sim.IDMonitorCalls)
	if got := o.Registry().Snapshot()[sim.CtrMonitorCalls]; got != 1 {
		t.Fatalf("observer registry does not export its SoC's counters: %s = %d", sim.CtrMonitorCalls, got)
	}
	if o.Trace() != nil {
		t.Fatal("default observer must not record spans (opt-in via Spans)")
	}
	if o.Profiler().Every() != DefaultSampleEvery {
		t.Fatalf("default cadence = %d, want %d", o.Profiler().Every(), DefaultSampleEvery)
	}
	ow := NewObserver(Config{Spans: true, TraceCap: 4}, nil)
	if ow.Trace() == nil {
		t.Fatal("Spans: true must enable the recorder")
	}
}
