package experiments

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Golden-cycle regression tests: exact cycle counts for every figure's
// smallest cell (one model per experiment), pinned so any accidental
// timing-model change fails loudly here instead of silently shifting
// EXPERIMENTS.md. If a change is INTENTIONAL, regenerate the constants
// below and EXPERIMENTS.md together (go run ./cmd/snpu-bench -markdown)
// and say so in the commit message.

// Solo cycle counts reused across cells (Fig. 1 values).
const (
	goldenYololiteSolo = sim.Cycle(4011901)
	goldenAlexnetSolo  = sim.Cycle(24036637)
)

func goldenModel(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGoldenFig1(t *testing.T) {
	res, err := Fig1([]workload.Workload{goldenModel(t, "yololite")}, npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Cycles; got != goldenYololiteSolo {
		t.Errorf("fig1 yololite cycles = %d, pinned %d", got, goldenYololiteSolo)
	}
}

func TestGoldenFig13(t *testing.T) {
	want := map[string]struct {
		cycles sim.Cycle
		reqs   int64
	}{
		"none":     {4804702, 0},
		"iotlb-4":  {5656558, 270434},
		"iotlb-8":  {5474514, 270434},
		"iotlb-16": {5443493, 270434},
		"iotlb-32": {5421765, 270434},
		"guarder":  {4804702, 53914},
	}
	res, err := Fig13([]workload.Workload{goldenModel(t, "yololite")}, npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("fig13 rows = %d, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		w, ok := want[r.Mechanism]
		if !ok {
			t.Errorf("fig13 unexpected mechanism %q", r.Mechanism)
			continue
		}
		if r.Cycles != w.cycles || r.Requests != w.reqs {
			t.Errorf("fig13 yololite/%s = (%d cycles, %d reqs), pinned (%d, %d)",
				r.Mechanism, r.Cycles, r.Requests, w.cycles, w.reqs)
		}
	}
}

func TestGoldenFig14(t *testing.T) {
	want := map[string]sim.Cycle{
		"tile":     11815720,
		"layer":    8043226,
		"5-layers": 8027886,
	}
	res, err := Fig14([]workload.Workload{goldenModel(t, "yololite")}, npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if w, ok := want[r.Granularity]; !ok || r.Cycles != w {
			t.Errorf("fig14 yololite/%s = %d cycles, pinned %d", r.Granularity, r.Cycles, w)
		}
	}
}

// TestGoldenFig15 pins the smallest spatial-sharing cell: group 1
// (alexnet + yololite) under the dynamic policy.
func TestGoldenFig15Cell(t *testing.T) {
	cfg := npu.DefaultConfig()
	soc, err := NewSoC(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.RunSpatialPair(soc.NPU,
		goldenModel(t, "alexnet"), goldenModel(t, "yololite"),
		driver.DynamicPolicy(), goldenAlexnetSolo, goldenYololiteSolo)
	if err != nil {
		t.Fatal(err)
	}
	const wantA, wantB = sim.Cycle(30681298), sim.Cycle(5131129)
	if r.CyclesA != wantA || r.CyclesB != wantB {
		t.Errorf("fig15 group1/dynamic = (%d, %d), pinned (%d, %d)",
			r.CyclesA, r.CyclesB, wantA, wantB)
	}
	if r.FractionA != 0.75 {
		t.Errorf("fig15 group1/dynamic fracA = %v, pinned 0.75", r.FractionA)
	}
}

func TestGoldenFig16(t *testing.T) {
	want := map[string]map[int]sim.Cycle{
		"software-noc":     {1: 202, 1024: 2248},
		"unauthorized-noc": {1: 2, 1024: 1025},
		"peephole-noc":     {1: 2, 1024: 1025},
	}
	res, err := Fig16(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if w, ok := want[r.Method][r.Lines]; ok && r.Latency != w {
			t.Errorf("fig16 %s/lines=%d latency = %d, pinned %d", r.Method, r.Lines, r.Latency, w)
		}
	}
}

func TestGoldenFig17(t *testing.T) {
	want := map[string]struct{ cycles, transfer sim.Cycle }{
		"unauthorized-noc": {1588148, 162303},
		"peephole-noc":     {1588148, 162303},
		"software-noc":     {2208085, 782240},
	}
	res, err := Fig17([]workload.Workload{goldenModel(t, "yololite")}, npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		w, ok := want[r.Method]
		if !ok {
			t.Errorf("fig17 unexpected method %q", r.Method)
			continue
		}
		if r.Cycles != w.cycles || r.TransferCycles != w.transfer {
			t.Errorf("fig17 yololite/%s = (%d, %d), pinned (%d, %d)",
				r.Method, r.Cycles, r.TransferCycles, w.cycles, w.transfer)
		}
	}
	// The zero-cycle peephole property (§V): authentication must not
	// change the cycle count, only the acceptance decision.
	if want["peephole-noc"].cycles != want["unauthorized-noc"].cycles {
		t.Error("golden table violates the zero-overhead peephole invariant")
	}
}
