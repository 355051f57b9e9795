package obs

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dma.retry.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("noc.link.occupancy")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestDuplicateRegistrationReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("monitor.call.count")
	c2 := r.Counter("monitor.call.count")
	if c1 != c2 {
		t.Fatal("same counter name returned distinct handles")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("duplicate handle does not share state")
	}
	h1 := r.Histogram("dma.xfer.cycles", DefaultCycleBuckets())
	h2 := r.Histogram("dma.xfer.cycles", DefaultCycleBuckets())
	if h1 != h2 {
		t.Fatal("same histogram name+bounds returned distinct handles")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.count")
	mustPanic(t, "counter name reused as gauge", func() { r.Gauge("x.count") })
	mustPanic(t, "counter name reused as histogram", func() { r.Histogram("x.count", []int64{1}) })
	r.Gauge("x.depth")
	mustPanic(t, "gauge name reused as counter", func() { r.Counter("x.depth") })
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []int64{1, 10, 100})
	mustPanic(t, "different bounds length", func() { r.Histogram("h", []int64{1, 10}) })
	mustPanic(t, "different bounds values", func() { r.Histogram("h", []int64{1, 10, 99}) })
	mustPanic(t, "empty bounds", func() { r.Histogram("h2", nil) })
	mustPanic(t, "non-ascending bounds", func() { r.Histogram("h3", []int64{10, 10}) })
}

func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 4, 16})
	// Boundary values land in the bounded bucket ("le" convention);
	// anything above the last bound lands in +Inf.
	for _, v := range []int64{0, 1, 2, 4, 5, 16, 17, 1 << 40} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // le=1: {0,1}; le=4: {2,4}; le=16: {5,16}; +Inf: {17, 1<<40}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := int64(0 + 1 + 2 + 4 + 5 + 16 + 17 + 1<<40)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
}

func TestResetMidRunKeepsHandlesValid(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{8})
	c.Add(3)
	g.Set(9)
	h.Observe(5)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not zero instruments in place")
	}
	// The pre-Reset handles must still be the live instruments.
	c.Inc()
	h.Observe(2)
	if r.Counter("c") != c {
		t.Fatal("Reset invalidated the counter handle")
	}
	if got := r.Snapshot()["c"]; got != 1 {
		t.Fatalf("post-Reset counter = %d, want 1", got)
	}
	if h.Count() != 1 {
		t.Fatalf("post-Reset histogram count = %d, want 1", h.Count())
	}
}

func TestScopeNesting(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("noc").Scope("link")
	s.Counter("stalls").Add(2)
	if got := r.Snapshot()["noc.link.stalls"]; got != 2 {
		t.Fatalf("scoped counter = %d, want 2", got)
	}
	if r.Counter("noc.link.stalls") != s.Counter("stalls") {
		t.Fatal("scoped and absolute names resolve to different handles")
	}
}

func TestAttachStatsSumsAcrossSinks(t *testing.T) {
	r := NewRegistry()
	a, b := sim.NewStats(), sim.NewStats()
	*a.Counter("noc.packets") = 3
	*b.Counter("noc.packets") = 4
	*b.Counter("dma.requests") = 1
	r.AttachStats(a)
	r.AttachStats(b)
	r.AttachStats(nil) // no-op
	r.Counter("noc.packets").Add(10)
	snap := r.Snapshot()
	if snap["noc.packets"] != 17 {
		t.Fatalf("summed counter = %d, want 17", snap["noc.packets"])
	}
	if snap["dma.requests"] != 1 {
		t.Fatalf("sink-only counter = %d, want 1", snap["dma.requests"])
	}
}

// TestConcurrentRegistration exercises the registry's mutex-guarded
// surface from many goroutines (run under -race by the CI `-race`
// job): registration, AttachStats, Reset, and exports may interleave.
// Instrument writes stay single-writer per the package contract, so
// each goroutine uses its own names.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := r.Scope("worker").Scope(string(rune('a' + id)))
			c := s.Counter("count")
			h := s.Histogram("lat", DefaultCycleBuckets())
			for j := 0; j < 100; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
			sink := sim.NewStats()
			*sink.Counter("shared.total") = 1
			r.AttachStats(sink)
			_ = r.Snapshot()
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap["shared.total"] != 8 {
		t.Fatalf("shared.total = %d, want 8", snap["shared.total"])
	}
	for i := 0; i < 8; i++ {
		name := "worker." + string(rune('a'+i)) + ".count"
		if snap[name] != 100 {
			t.Fatalf("%s = %d, want 100", name, snap[name])
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", what)
		}
	}()
	fn()
}

func TestAttachStatsListsCanonicalNamespace(t *testing.T) {
	r := NewRegistry()
	if len(r.Snapshot()) != 0 {
		t.Fatalf("empty registry snapshot = %v", r.Snapshot())
	}
	s := sim.NewStats()
	s.IncID(sim.IDDMARequests)
	r.AttachStats(s)
	snap := r.Snapshot()
	for _, name := range sim.CanonicalCounters() {
		if _, ok := snap[name]; !ok {
			t.Errorf("canonical counter %s missing from export", name)
		}
	}
	if snap[sim.CtrDMARequests] != 1 || len(snap) != len(sim.CanonicalCounters()) {
		t.Fatalf("snapshot has %d keys, dma.requests=%d", len(snap), snap[sim.CtrDMARequests])
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(3)
	h.Observe(7)
}
