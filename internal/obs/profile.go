package obs

import (
	"repro/internal/sim"
)

// Profiler is the pluggable profiling-hook manager: components
// register samplers (queue depths, link occupancy, channel backlog)
// and timed call sites tick MaybeSample with the current simulated
// cycle. Samples land on a fixed cycle cadence — at most one sample
// set per period, taken by whichever component crosses the period
// boundary first — so the sample stream depends only on the simulated
// event stream, never on the wall clock.
//
// Each sampler feeds a gauge named after it (the latest sample) and a
// histogram named <name>.samples (the distribution over the run); each
// sample set counts once in profiler.sample.count.
type Profiler struct {
	reg   *Registry
	stats *sim.Stats
	every sim.Cycle
	next  sim.Cycle
	hooks []hook
}

// hook is one registered sampler with its resolved instruments.
type hook struct {
	name string
	fn   func(now sim.Cycle) int64
	last *Gauge
	hist *Histogram
}

// NewProfiler builds a profiler sampling every `every` cycles into
// reg, counting sample sets in stats. every must be positive.
func NewProfiler(reg *Registry, stats *sim.Stats, every sim.Cycle) *Profiler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Profiler{reg: reg, stats: stats, every: every}
}

// Register adds a sampler. fn is called with the current simulated
// cycle and must be cheap and side-effect-free. Registering the same
// name twice keeps the first sampler (attachment helpers may run more
// than once). Safe on nil (no-op).
func (p *Profiler) Register(name string, fn func(now sim.Cycle) int64) {
	if p == nil {
		return
	}
	for _, h := range p.hooks {
		if h.name == name {
			return
		}
	}
	p.hooks = append(p.hooks, hook{
		name: name,
		fn:   fn,
		last: p.reg.Gauge(name),
		hist: p.reg.Histogram(name+".samples", DefaultCycleBuckets()),
	})
}

// MaybeSample takes one sample set if the current cycle has crossed
// into a new sampling period, else returns immediately (one compare).
// Safe on nil.
func (p *Profiler) MaybeSample(now sim.Cycle) {
	if p == nil || now < p.next {
		return
	}
	for _, h := range p.hooks {
		v := h.fn(now)
		h.last.Set(v)
		h.hist.Observe(v)
	}
	p.stats.IncID(sim.IDProfilerSamples)
	// Advance to the next period boundary after now; one sample per
	// period no matter how many cycles elapsed in between.
	p.next = (now/p.every + 1) * p.every
}

// Every reports the sampling period.
func (p *Profiler) Every() sim.Cycle {
	if p == nil {
		return 0
	}
	return p.every
}
