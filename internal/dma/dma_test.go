package dma

import (
	"bytes"
	"testing"

	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/xlate"
)

type fixture struct {
	eng     *Engine
	sp      *spad.Scratchpad
	phys    *mem.Physical
	stats   *sim.Stats
	channel *sim.Resource
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	stats := sim.NewStats()
	phys := mem.NewPhysical()
	channel := sim.NewResource("dram")
	sp, err := spad.New(spad.Config{Lines: 256, LineBytes: 16, Kind: spad.Exclusive, Isolated: true}, stats)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(DefaultConfig(), xlate.NewIdentity(stats), channel, phys, stats)
	return &fixture{eng: eng, sp: sp, phys: phys, stats: stats, channel: channel}
}

func TestDMATiming(t *testing.T) {
	f := newFixture(t)
	done, err := f.eng.Do(Request{VA: 0x8000_0000, Bytes: 1024, Dir: ToScratchpad}, f.sp, spad.NonSecure, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1024B / 16Bpc = 64 transfer cycles + 100 latency.
	if done != 164 {
		t.Fatalf("done = %d, want 164", done)
	}
	if f.stats.Get(sim.CtrDMARequests) != 1 || f.stats.Get(sim.CtrDMAPackets) != 16 {
		t.Fatalf("counters: req=%d pkts=%d", f.stats.Get(sim.CtrDMARequests), f.stats.Get(sim.CtrDMAPackets))
	}
}

func TestDMAZeroBytesIsFree(t *testing.T) {
	f := newFixture(t)
	done, err := f.eng.Do(Request{VA: 0x8000_0000, Bytes: 0, Dir: ToScratchpad}, f.sp, spad.NonSecure, 7)
	if err != nil || done != 7 {
		t.Fatalf("zero-byte dma: done=%d err=%v", done, err)
	}
}

func TestDMAChannelContention(t *testing.T) {
	f := newFixture(t)
	d1, _ := f.eng.Do(Request{VA: 0x8000_0000, Bytes: 1600, Dir: ToScratchpad}, f.sp, spad.NonSecure, 0)
	d2, _ := f.eng.Do(Request{VA: 0x8001_0000, Bytes: 1600, Dir: ToScratchpad}, f.sp, spad.NonSecure, 0)
	if d2 <= d1 {
		t.Fatalf("no serialization on shared channel: %d then %d", d1, d2)
	}
}

func TestDMAFunctionalLoadStore(t *testing.T) {
	f := newFixture(t)
	want := bytes.Repeat([]byte("0123456789abcdef"), 4) // 64 bytes = 4 lines
	f.phys.Write(0x8000_0100, want)
	if _, err := f.eng.Do(Request{
		VA: 0x8000_0100, Bytes: 64, Dir: ToScratchpad, SpadLine: 10, Functional: true,
	}, f.sp, spad.NonSecure, 0); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 16)
	if err := f.sp.Read(spad.NonSecure, 11, line); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, want[16:32]) {
		t.Fatalf("scratchpad line = %q", line)
	}
	// Store back to a different address and compare.
	if _, err := f.eng.Do(Request{
		VA: 0x8000_0800, Bytes: 64, Dir: ToMemory, SpadLine: 10, Functional: true,
	}, f.sp, spad.NonSecure, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	f.phys.Read(0x8000_0800, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestDMAPartialTailLine(t *testing.T) {
	f := newFixture(t)
	f.phys.Write(0x8000_0000, []byte("hello world!"))
	if _, err := f.eng.Do(Request{
		VA: 0x8000_0000, Bytes: 12, Dir: ToScratchpad, SpadLine: 0, Functional: true,
	}, f.sp, spad.NonSecure, 0); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 16)
	if err := f.sp.Read(spad.NonSecure, 0, line); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line[:12], []byte("hello world!")) {
		t.Fatalf("line = %q", line)
	}
	for _, b := range line[12:] {
		if b != 0 {
			t.Fatal("tail of partial line not zeroed")
		}
	}
}

func TestDMADeniedByGuarder(t *testing.T) {
	f := newFixture(t)
	machine := tee.NewMachine(f.phys)
	g := guarder.NewDefault(f.stats)
	sec := machine.SecureContext()
	// Only a small normal window is authorized.
	if err := g.SetCheckReg(sec, 0, guarder.CheckReg{Base: 0x8800_0000, Size: 0x1000, Perm: mem.PermRW, World: mem.Normal, Valid: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTransReg(sec, 0, guarder.TransReg{VBase: 0x1000, PBase: 0x8800_0000, Size: 0x1000, Valid: true}); err != nil {
		t.Fatal(err)
	}
	// A window pointing at secure memory exists too, but no checking
	// register grants normal-world access there.
	if err := g.SetTransReg(sec, 1, guarder.TransReg{VBase: 0x9000, PBase: 0x9000_0000, Size: 0x1000, Valid: true}); err != nil {
		t.Fatal(err)
	}
	f.eng.SetTranslator(g)

	if _, err := f.eng.Do(Request{VA: 0x1000, Bytes: 64, Dir: ToScratchpad, World: mem.Normal}, f.sp, spad.NonSecure, 0); err != nil {
		t.Fatalf("authorized dma denied: %v", err)
	}
	if _, err := f.eng.Do(Request{VA: 0x9000, Bytes: 64, Dir: ToScratchpad, World: mem.Normal}, f.sp, spad.NonSecure, 0); err == nil {
		t.Fatal("dma into secure memory allowed")
	}
}

func TestDMAWriteNeedsWritePerm(t *testing.T) {
	f := newFixture(t)
	machine := tee.NewMachine(f.phys)
	g := guarder.NewDefault(f.stats)
	sec := machine.SecureContext()
	if err := g.SetCheckReg(sec, 0, guarder.CheckReg{Base: 0x8800_0000, Size: 0x1000, Perm: mem.PermRead, World: mem.Normal, Valid: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTransReg(sec, 0, guarder.TransReg{VBase: 0x1000, PBase: 0x8800_0000, Size: 0x1000, Valid: true}); err != nil {
		t.Fatal(err)
	}
	f.eng.SetTranslator(g)
	if err := f.sp.Write(spad.NonSecure, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.eng.Do(Request{VA: 0x1000, Bytes: 16, Dir: ToMemory, World: mem.Normal}, f.sp, spad.NonSecure, 0); err == nil {
		t.Fatal("mvout through read-only authority allowed")
	}
	if _, err := f.eng.Do(Request{VA: 0x1000, Bytes: 16, Dir: ToScratchpad, World: mem.Normal}, f.sp, spad.NonSecure, 0); err != nil {
		t.Fatalf("mvin through read authority denied: %v", err)
	}
}

func TestDMAFunctionalRespectsSpadIsolation(t *testing.T) {
	f := newFixture(t)
	// A secure write left line 5 tagged secure; a non-secure functional
	// mvout that tries to read it must fail.
	if err := f.sp.Write(spad.SecureDomain, 5, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	_, err := f.eng.Do(Request{
		VA: 0x8000_0000, Bytes: 16, Dir: ToMemory, SpadLine: 5, Functional: true,
	}, f.sp, spad.NonSecure, 0)
	if err == nil {
		t.Fatal("non-secure mvout exfiltrated a secure scratchpad line")
	}
}

func TestDirectionString(t *testing.T) {
	if ToScratchpad.String() != "mvin" || ToMemory.String() != "mvout" {
		t.Fatal("direction names")
	}
}

// BenchmarkDoPipelined measures the per-request DMA hot path: a
// 64-request timing-only batch (translate, count, claim the channel).
func BenchmarkDoPipelined(b *testing.B) {
	f := newFixture(b)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{VA: mem.VirtAddr(0x8000_0000 + i*1024), Bytes: 1024, Dir: ToScratchpad}
	}
	b.ReportAllocs()
	b.ResetTimer()
	at := sim.Cycle(0)
	for i := 0; i < b.N; i++ {
		end, err := f.eng.DoPipelined(reqs, nil, spad.NonSecure, at)
		if err != nil {
			b.Fatal(err)
		}
		at = end
	}
}
