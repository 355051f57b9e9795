package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	s := sim.NewStats()
	s.AddID(sim.IDNoCPackets, 12)
	r.AttachStats(s)
	r.Gauge("noc.link.occupancy").Set(3)
	h := r.Histogram("dma.xfer.cycles", []int64{1, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE noc_packets counter\nnoc_packets 12\n",
		"# TYPE noc_link_occupancy gauge\nnoc_link_occupancy 3\n",
		"# TYPE dma_xfer_cycles histogram\n",
		"dma_xfer_cycles_bucket{le=\"1\"} 1\n",
		"dma_xfer_cycles_bucket{le=\"4\"} 2\n",    // cumulative
		"dma_xfer_cycles_bucket{le=\"+Inf\"} 3\n", // total
		"dma_xfer_cycles_sum 103\n",
		"dma_xfer_cycles_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicAndSorted(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		// Register in scrambled order; export must sort by name.
		for _, n := range []string{"z.last", "a.first", "m.mid"} {
			r.Gauge(n).Set(1)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := build()
	if out != build() {
		t.Fatal("two identical registries exported different bytes")
	}
	if strings.Index(out, "a_first") > strings.Index(out, "m_mid") ||
		strings.Index(out, "m_mid") > strings.Index(out, "z_last") {
		t.Fatalf("export not sorted by name:\n%s", out)
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g").Set(-5)
	r.Histogram("h", []int64{10}).Observe(7)
	s1, s2 := sim.NewStats(), sim.NewStats()
	s1.AddID(sim.IDNoCPackets, 2)
	s2.AddID(sim.IDNoCPackets, 3) // same counter in a second sink: sums
	r.AttachStats(s1)
	r.AttachStats(s2)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Bounds []int64 `json:"bounds"`
			Counts []int64 `json:"counts"`
			Sum    int64   `json:"sum"`
			Count  int64   `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if got := dump.Counters[sim.CtrNoCPackets]; got != 5 {
		t.Fatalf("counter %s = %d, want 5 (sink 2 + sink 3)", sim.CtrNoCPackets, got)
	}
	if dump.Gauges["g"] != -5 {
		t.Fatalf("gauge g = %d, want -5", dump.Gauges["g"])
	}
	h := dump.Histograms["h"]
	if len(h.Bounds) != 1 || h.Bounds[0] != 10 || len(h.Counts) != 2 ||
		h.Counts[0] != 1 || h.Counts[1] != 0 || h.Sum != 7 || h.Count != 1 {
		t.Fatalf("histogram shape wrong: %+v", h)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"noc.link.stall_cycles":    "noc_link_stall_cycles",
		"fault.injected.dma-stall": "fault_injected_dma_stall",
		"plain":                    "plain",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
