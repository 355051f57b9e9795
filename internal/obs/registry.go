package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Gauge is a point-in-time value (a queue depth, an occupancy).
type Gauge struct{ v int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v }

// Histogram buckets observations (typically cycle spans) under
// ascending inclusive upper bounds, with an implicit +Inf bucket at
// the end. Observe is allocation-free.
type Histogram struct {
	bounds []int64 // ascending; counts[i] holds v <= bounds[i]
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	sum    int64
	n      int64
}

// Observe records one value: it lands in the first bucket whose upper
// bound is >= v (boundary values belong to the bounded bucket, the
// Prometheus "le" convention). A no-op on a nil handle.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count reports total observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Bounds returns the configured upper bounds (not including +Inf).
func (h *Histogram) Bounds() []int64 { return append([]int64(nil), h.bounds...) }

// BucketCounts returns per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 { return append([]int64(nil), h.counts...) }

// DefaultCycleBuckets is the standard exponential cycle bucketing:
// 1, 4, 16, ... 4^10 (~1M cycles = ~1ms at 1 GHz), wide enough for
// anything from a single flit hop to a full layer.
func DefaultCycleBuckets() []int64 {
	out := make([]int64, 0, 11)
	for b := int64(1); b <= 1<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Registry is a hierarchical metric namespace. Names are dotted paths
// (component.site.metric); Scope carves sub-namespaces. It owns gauges
// and histograms; counters live in the attached sim.Stats sinks, and
// the registry sums them by name at export. Registration is idempotent
// — asking for an existing name of the same kind returns the same
// handle — and kind-checked: reusing a name across kinds (a typed
// counter's included) or re-registering a histogram with different
// bounds panics, because it is a wiring bug no run should silently
// tolerate.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	stats  []*sim.Stats
}

// counterNames is the typed counter namespace every attached sink
// exports.
var counterNames = sim.CounterNames()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// checkKind panics if name is already taken by a typed counter or by
// an instrument of another kind. Callers hold r.mu.
func (r *Registry) checkKind(name, want string) {
	if slices.Contains(counterNames, name) {
		panic(fmt.Sprintf("obs: %q is a typed counter, requested as a %s", name, want))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, requested as a %s", name, want))
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, requested as a %s", name, want))
	}
}

// Gauge returns the stable gauge handle for name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "gauge")
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the stable histogram handle for name with the
// given ascending upper bounds. Re-registering with different bounds
// panics.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "histogram")
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// AttachStats includes a sim.Stats counter sink in this registry's
// exports and snapshots; once one is attached, every typed counter is
// listed, at zero if no sink counted it. Many sinks may be
// attached (one per experiment cell); same-named counters sum across
// sinks. The sink's cells are read at export time, so attach-then-run
// works — but reads must happen after the owning SoC's run completes
// (the experiment runner's WaitGroup provides that ordering).
func (r *Registry) AttachStats(s *sim.Stats) {
	if s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = append(r.stats, s)
}

// Scope returns a view of the registry under prefix (no trailing
// dot): Scope("noc").Gauge("link.occupancy") is Gauge("noc.link.occupancy").
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix + "."} }

// Scope is a prefixed view of a Registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Gauge is Registry.Gauge under the scope prefix.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + name) }

// Histogram is Registry.Histogram under the scope prefix.
func (s Scope) Histogram(name string, bounds []int64) *Histogram {
	return s.r.Histogram(s.prefix+name, bounds)
}

// Scope nests a sub-namespace.
func (s Scope) Scope(prefix string) Scope {
	return Scope{r: s.r, prefix: s.prefix + prefix + "."}
}

// Reset zeroes every gauge and histogram in place; handles stay valid
// and read zero afterwards. Attached sim.Stats sinks are NOT reset —
// they belong to their SoCs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.sum, h.n = 0, 0
	}
}

// counterTotals sums every attached sink by counter name; with any
// sink attached, every typed counter is listed. Callers hold r.mu.
func (r *Registry) counterTotals() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, s := range r.stats {
		for _, name := range counterNames {
			out[name] += s.Get(name)
		}
	}
	return out
}

// Snapshot returns every attached sink's counters, summed by name.
// Gauges and histograms are read through their handles or the
// exporters.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterTotals()
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
