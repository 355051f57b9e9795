package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestInjectedCounterPerKind(t *testing.T) {
	for _, k := range Kinds() {
		if got, want := injectedID(k).String(), sim.CtrFaultsInjected+"."+k.String(); got != want {
			t.Errorf("kind %s counts into %q, want %q", k, got, want)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := KindFromString(k.String())
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("KindFromString(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := KindFromString("gamma-ray"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := Plan{
		Seed: 42,
		Events: []Event{
			{At: 100, Kind: DRAMBitFlip, Sel: 7, Bit: 3},
			{At: 200, Kind: NoCCorrupt, Sel: 1, Bit: 60},
			{At: 300, Kind: CoreHang},
		},
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestPlanJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   `{"events":[{"at":1,"kind":"cosmic-ray"}]}`,
		"negative cycle": `{"events":[{"at":-5,"kind":"dram-bit-flip"}]}`,
		"unknown field":  `{"events":[],"bogus":1}`,
	}
	for name, js := range cases {
		if _, err := ReadPlan(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted %s", name, js)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Enabled() {
		t.Fatal("nil injector enabled")
	}
	if inj.Remaining() != 0 || inj.Injected() != 0 {
		t.Fatal("nil injector has state")
	}
	inj.Observe(100)
	if _, ok := inj.Take(DRAMBitFlip, 1000); ok {
		t.Fatal("nil injector produced an event")
	}
	if _, ok := inj.TakeAt(SpadBitFlip); ok {
		t.Fatal("nil injector produced an event via TakeAt")
	}
}

func TestInjectorOrderingAndClock(t *testing.T) {
	stats := sim.NewStats()
	inj := NewInjector(Plan{Events: []Event{
		{At: 300, Kind: DRAMBitFlip, Sel: 3},
		{At: 100, Kind: DRAMBitFlip, Sel: 1},
		{At: 200, Kind: NoCDrop},
	}}, stats)

	if !inj.Enabled() || inj.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", inj.Remaining())
	}
	// Nothing due before its cycle.
	if _, ok := inj.Take(DRAMBitFlip, 99); ok {
		t.Fatal("event fired before its cycle")
	}
	// Events of one kind pop oldest first regardless of plan order.
	ev, ok := inj.Take(DRAMBitFlip, 1000)
	if !ok || ev.Sel != 1 {
		t.Fatalf("first pop = %+v, want Sel 1", ev)
	}
	ev, ok = inj.Take(DRAMBitFlip, 1000)
	if !ok || ev.Sel != 3 {
		t.Fatalf("second pop = %+v, want Sel 3", ev)
	}
	// TakeAt uses the high-water clock (1000 from the Takes above).
	if _, ok := inj.TakeAt(NoCDrop); !ok {
		t.Fatal("TakeAt missed a due event")
	}
	if inj.Enabled() || inj.Remaining() != 0 || inj.Injected() != 3 {
		t.Fatalf("drained injector: remaining %d injected %d", inj.Remaining(), inj.Injected())
	}
	snap := stats.Snapshot()
	if snap[sim.CtrFaultsInjected] != 3 {
		t.Fatalf("%s = %d, want 3", sim.CtrFaultsInjected, snap[sim.CtrFaultsInjected])
	}
	if snap[sim.CtrFaultsInjected+".dram-bit-flip"] != 2 {
		t.Fatalf("per-kind counter = %d, want 2", snap[sim.CtrFaultsInjected+".dram-bit-flip"])
	}
}

func TestEventPick(t *testing.T) {
	e := Event{Sel: 10}
	if e.Pick(4) != 2 {
		t.Fatalf("Pick(4) = %d, want 2", e.Pick(4))
	}
	if e.Pick(0) != 0 {
		t.Fatal("Pick(0) must not divide by zero")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	rates := UniformRates(50)
	a := Generate(7, 1_000_000, rates)
	b := Generate(7, 1_000_000, rates)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := Generate(8, 1_000_000, rates)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("rate 50/Mcyc over 1M cycles generated nothing")
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatalf("events unsorted at %d: %+v after %+v", i, a.Events[i], a.Events[i-1])
		}
	}
	for _, ev := range a.Events {
		if ev.At > 1_000_000 {
			t.Fatalf("event past horizon: %+v", ev)
		}
	}
}
