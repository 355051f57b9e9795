package experiments

import (
	"strings"
	"testing"

	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exportCollected runs fn inside a stats-collection window and returns
// the aggregated Prometheus export of every SoC sink it registered.
func exportCollected(t *testing.T, fn func() error) string {
	t.Helper()
	CollectSoCStats(true)
	defer CollectSoCStats(false)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, s := range DrainSoCStats() {
		reg.AttachStats(s)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsCollectionDeterminism pins the -metrics-dir contract: the
// aggregated per-experiment metrics are byte-identical at any worker
// count. Sinks register (and released SoCs freeze theirs) in
// pool-completion order, which varies with -j, but the registry sums
// same-named counters commutatively and exports sorted, so the order
// cannot show. Fig16 boots its own sinks; Fig13's cells release
// pooled SoCs.
func TestMetricsCollectionDeterminism(t *testing.T) {
	cfg := npu.DefaultConfig()
	yolo, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []struct {
		name string
		run  func() error
	}{
		{"fig16", func() error { _, err := Fig16(cfg); return err }},
		{"fig13", func() error { _, err := Fig13([]workload.Workload{yolo}, cfg); return err }},
	} {
		run := func(workers int) string {
			old := Workers()
			SetWorkers(workers)
			defer SetWorkers(old)
			return exportCollected(t, exp.run)
		}
		seq := run(1)
		par := run(4)
		if seq != par {
			t.Fatalf("%s: aggregated metrics differ between -j 1 and -j 4:\n--- j1 ---\n%s\n--- j4 ---\n%s", exp.name, seq, par)
		}
		if !strings.Contains(seq, "noc_flits") || !strings.Contains(seq, "dma_bytes") || strings.Contains(seq, "dma_bytes 0\n") {
			t.Fatalf("%s: aggregated export missing expected counters:\n%s", exp.name, seq)
		}
	}
}

func TestCollectSoCStatsWindow(t *testing.T) {
	// Outside a window, RecordSoCStats drops sinks.
	RecordSoCStats(sim.NewStats())
	CollectSoCStats(true)
	s := sim.NewStats()
	s.IncID(sim.IDDMARequests)
	RecordSoCStats(s)
	RecordSoCStats(nil) // no-op
	sinks := DrainSoCStats()
	if len(sinks) != 1 || sinks[0] != s {
		t.Fatalf("sinks = %v, want exactly the one recorded inside the window", sinks)
	}
	// Drain clears but keeps collecting. A frozen sink keeps the
	// values it had when its owner reset it.
	RecordSoCStats(s)
	FreezeSoCStats(s)
	s.Reset()
	if sinks := DrainSoCStats(); len(sinks) != 1 || sinks[0] == s || sinks[0].Get(sim.CtrDMARequests) != 1 {
		t.Fatalf("post-drain sinks = %v, want one frozen copy reading dma.requests 1", sinks)
	}
	CollectSoCStats(false)
	RecordSoCStats(sim.NewStats())
	if got := len(DrainSoCStats()); got != 0 {
		t.Fatalf("disabled window recorded %d sinks, want 0", got)
	}
}
