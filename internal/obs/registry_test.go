package obs

import (
	"io"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	s := sim.NewStats()
	r.AttachStats(s)
	s.IncID(sim.IDDMARetries)
	s.AddID(sim.IDDMARetries, 4)
	if got := r.Snapshot()[sim.CtrDMARetries]; got != 5 {
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
	g1 := r.Gauge("noc.link.occupancy")
	g2 := r.Gauge("noc.link.occupancy")
	if g1 != g2 {
		t.Fatal("same gauge name returned distinct handles")
	}
	g1.Set(1)
	if g2.Value() != 1 {
		t.Fatal("duplicate handle does not share state")
	}
	h1 := r.Histogram("dma.xfer.cycles", DefaultCycleBuckets())
	h2 := r.Histogram("dma.xfer.cycles", DefaultCycleBuckets())
	if h1 != h2 {
		t.Fatal("same histogram name+bounds returned distinct handles")
	}
}

// A name is one kind everywhere: an instrument may not reuse another
// kind's name or a typed counter's, so no export carries two # TYPE
// lines for one name.
func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x.depth")
	mustPanic(t, "gauge name reused as histogram", func() { r.Histogram("x.depth", []int64{1}) })
	r.Histogram("x.lat", []int64{1})
	mustPanic(t, "histogram name reused as gauge", func() { r.Gauge("x.lat") })
	mustPanic(t, "typed counter name as gauge", func() { r.Gauge(sim.CtrMonitorCalls) })
	mustPanic(t, "typed counter name as histogram", func() { r.Histogram(sim.CtrSchedCompletes, []int64{1}) })
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
	s := sim.NewStats()
	r.AttachStats(s)
	s.AddID(sim.IDNoCFlits, 3)
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{8})
	g.Set(9)
	h.Observe(5)
	r.Reset()
	if g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not zero instruments in place")
	}
	// The pre-Reset handles must still be the live instruments.
	g.Set(1)
	h.Observe(2)
	if r.Gauge("g") != g || r.Gauge("g").Value() != 1 {
		t.Fatal("Reset invalidated the gauge handle")
	}
	if h.Count() != 1 {
		t.Fatalf("post-Reset histogram count = %d, want 1", h.Count())
	}
	// Attached sinks belong to their SoCs: Reset leaves them alone.
	if got := r.Snapshot()[sim.CtrNoCFlits]; got != 3 {
		t.Fatalf("post-Reset sink counter = %d, want 3", got)
	}
}

func TestScopeNesting(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("noc").Scope("link")
	s.Gauge("occupancy").Set(2)
	if r.Gauge("noc.link.occupancy") != s.Gauge("occupancy") {
		t.Fatal("scoped and absolute names resolve to different handles")
	}
	if got := r.Gauge("noc.link.occupancy").Value(); got != 2 {
		t.Fatalf("scoped gauge = %d, want 2", got)
	}
}

func TestAttachStatsSumsAcrossSinks(t *testing.T) {
	r := NewRegistry()
	a, b := sim.NewStats(), sim.NewStats()
	a.AddID(sim.IDNoCPackets, 3)
	b.AddID(sim.IDNoCPackets, 4)
	b.IncID(sim.IDDMARequests)
	r.AttachStats(a)
	r.AttachStats(b)
	r.AttachStats(nil) // no-op
	snap := r.Snapshot()
	if snap[sim.CtrNoCPackets] != 7 {
		t.Fatalf("summed counter = %d, want 7", snap[sim.CtrNoCPackets])
	}
	if snap[sim.CtrDMARequests] != 1 {
		t.Fatalf("one-sink counter = %d, want 1", snap[sim.CtrDMARequests])
	}
}

// TestConcurrentRegistration exercises the registry's mutex-guarded
// surface from many goroutines (run under -race by CI): registration,
// AttachStats, snapshots and both exports interleave. Instrument
// writes stay single-writer per the package contract: each goroutine
// writes only its own gauge, histogram and sink, and every goroutine
// finishes writing before any of them reads the registry.
func TestConcurrentRegistration(t *testing.T) {
	const workers = 8
	r := NewRegistry()
	var written, done sync.WaitGroup
	written.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(id int) {
			defer done.Done()
			s := r.Scope("worker").Scope(string(rune('a' + id)))
			g := s.Gauge("depth")
			h := s.Histogram("lat", DefaultCycleBuckets())
			for j := 0; j < 100; j++ {
				g.Set(int64(j))
				h.Observe(int64(j))
			}
			sink := sim.NewStats()
			sink.IncID(sim.IDSchedCompletes)
			written.Done()
			written.Wait()
			r.AttachStats(sink)
			if s.Histogram("lat", DefaultCycleBuckets()) != h {
				t.Error("re-registration returned a different histogram")
			}
			_ = r.Snapshot()
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
		}(i)
	}
	done.Wait()
	if got := r.Snapshot()[sim.CtrSchedCompletes]; got != workers {
		t.Fatalf("%s = %d, want %d", sim.CtrSchedCompletes, got, workers)
	}
	for i := 0; i < workers; i++ {
		name := "worker." + string(rune('a'+i))
		if got := r.Gauge(name + ".depth").Value(); got != 99 {
			t.Fatalf("%s.depth = %d, want 99", name, got)
		}
		if got := r.Histogram(name+".lat", DefaultCycleBuckets()).Count(); got != 100 {
			t.Fatalf("%s.lat count = %d, want 100", name, got)
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

func TestAttachStatsListsEveryTypedCounter(t *testing.T) {
	r := NewRegistry()
	if len(r.Snapshot()) != 0 {
		t.Fatalf("empty registry snapshot = %v", r.Snapshot())
	}
	s := sim.NewStats()
	s.IncID(sim.IDDMARequests)
	r.AttachStats(s)
	snap := r.Snapshot()
	for _, name := range sim.CounterNames() {
		if _, ok := snap[name]; !ok {
			t.Errorf("typed counter %s missing from export", name)
		}
	}
	if snap[sim.CtrDMARequests] != 1 || len(snap) != len(sim.CounterNames()) {
		t.Fatalf("snapshot has %d keys, dma.requests=%d", len(snap), snap[sim.CtrDMARequests])
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *Histogram
	h.Observe(7)
}
