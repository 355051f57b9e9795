package iommu

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/xlate"
)

// A corrupted IOTLB entry is caught by parity on the next lookup,
// invalidated, and re-walked: the translation comes back correct at
// the cost of one page walk.
func TestIOTLBCorruptionDetectedAndRewalked(t *testing.T) {
	u, stats := newIOMMU(t, 8)
	req := xlate.Request{VA: 0x10000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}
	first, err := u.Translate(req, 0)
	if err != nil {
		t.Fatal(err)
	}

	if !u.TLB().Corrupt(0, 12) {
		t.Fatal("no entry to corrupt")
	}
	res, err := u.Translate(req, 0)
	if err != nil {
		t.Fatalf("corrupted entry not recovered: %v", err)
	}
	if res.PA != first.PA {
		t.Fatalf("recovered PA %#x != %#x", uint64(res.PA), uint64(first.PA))
	}
	if res.Stall == 0 {
		t.Fatal("recovery skipped the re-walk")
	}
	if n := stats.Get(sim.CtrIOTLBParityErrors); n != 1 {
		t.Fatalf("parity errors = %d, want 1", n)
	}
}

// Without parity the corrupted PPN silently misdirects the DMA — the
// baseline that motivates parity-on-by-default.
func TestIOTLBCorruptionSilentWithoutParity(t *testing.T) {
	stats := sim.NewStats()
	cfg := DefaultConfig(8)
	cfg.NoParity = true
	u := New(cfg, stats)
	if err := u.Table().MapRange(0x10000, 0x8001_0000, 4*mem.PageSize, mem.PermRW, false); err != nil {
		t.Fatal(err)
	}
	req := xlate.Request{VA: 0x10000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}
	first, err := u.Translate(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !u.TLB().Corrupt(0, 12) {
		t.Fatal("no entry to corrupt")
	}
	res, err := u.Translate(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA == first.PA {
		t.Fatal("corruption had no effect without parity")
	}
	if stats.Get(sim.CtrIOTLBParityErrors) != 0 {
		t.Fatal("parity fired while disabled")
	}
}

// Injector-scheduled IOTLB corruption lands on the translate path and
// is recovered in the same call stream.
func TestInjectorDrivenIOTLBCorruption(t *testing.T) {
	u, stats := newIOMMU(t, 8)
	inj := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{At: 1, Kind: fault.IOTLBCorrupt, Sel: 0, Bit: 7},
	}}, stats)
	u.AttachInjector(inj)

	req := xlate.Request{VA: 0x10000, Bytes: 64, Need: mem.PermRead, World: mem.Normal}
	first, err := u.Translate(req, 0) // walk + insert; the event is not yet due
	if err != nil {
		t.Fatal(err)
	}
	// The event fires at the head of this call, corrupting the cached
	// entry the lookup is about to use.
	res, err := u.Translate(req, 1)
	if err != nil {
		t.Fatalf("not recovered: %v", err)
	}
	if res.PA != first.PA {
		t.Fatalf("PA %#x != %#x", uint64(res.PA), uint64(first.PA))
	}
	if inj.Remaining() != 0 {
		t.Fatal("event not consumed")
	}
	if stats.Get(sim.CtrIOTLBParityErrors) != 1 {
		t.Fatalf("parity detections = %d, want 1", stats.Get(sim.CtrIOTLBParityErrors))
	}
}
