package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/npu"
	"repro/internal/spad"
	"repro/internal/workload"
)

// This file pins the two halves of the pooling contract stated in
// pool.go: determinism (a cell on a recycled SoC is byte-identical to
// the same cell on a fresh boot, across reuse epochs) and isolation
// (no prior tenant's bytes survive a recycle).

// renderCells runs a representative mix of cells — solo and contended,
// across the baseline/IOTLB/Guarder mechanisms — and renders every
// cycle count and the full sorted stats snapshot into one byte string.
func renderCells(t *testing.T, models []workload.Workload) []byte {
	t.Helper()
	cfg := npu.DefaultConfig()
	var buf bytes.Buffer
	for _, mech := range Fig13Mechanisms() {
		for _, w := range models {
			cyc, stats, err := RunSolo(w, mech, cfg)
			if err != nil {
				t.Fatalf("RunSolo(%s, %s): %v", w.Name, mech.Name, err)
			}
			fmt.Fprintf(&buf, "solo %s %s %d\n", w.Name, mech.Name, cyc)
			writeStats(&buf, stats)
			cyc, stats, err = RunContended(w, mech, cfg)
			if err != nil {
				t.Fatalf("RunContended(%s, %s): %v", w.Name, mech.Name, err)
			}
			fmt.Fprintf(&buf, "contended %s %s %d\n", w.Name, mech.Name, cyc)
			writeStats(&buf, stats)
		}
	}
	return buf.Bytes()
}

// writeStats renders the non-zero counters. Zero-valued entries are
// skipped deliberately: Stats.Reset keeps ad-hoc (non-canonical) names,
// so a recycled SoC's snapshot may carry never-incremented keys a fresh
// boot lacks. Every consumer reads counter values by name, so metric
// equality modulo zero entries is the contract.
func writeStats(buf *bytes.Buffer, stats map[string]int64) {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		if stats[k] != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(buf, "  %s=%d\n", k, stats[k])
	}
}

// TestPooledDifferential is the fresh-vs-pooled differential: the cell
// mix must render byte-identically with pooling forced off (every cell
// boots fresh) and with pooling on, across two reuse epochs (the
// second epoch runs entirely on recycled SoCs).
func TestPooledDifferential(t *testing.T) {
	var models []workload.Workload
	for _, n := range []string{"alexnet", "yololite"} {
		w, err := workload.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, w)
	}

	SetPooling(false)
	fresh := renderCells(t, models)

	SetPooling(true)
	defer SetPooling(true) // leave the default state for later tests
	hits0, _ := PoolCounters()
	epoch1 := renderCells(t, models)
	epoch2 := renderCells(t, models)
	hits1, _ := PoolCounters()

	if !bytes.Equal(fresh, epoch1) {
		t.Errorf("epoch 1 (pooled) differs from fresh boots:\n%s", firstLineDiff(fresh, epoch1))
	}
	if !bytes.Equal(fresh, epoch2) {
		t.Errorf("epoch 2 (all recycled) differs from fresh boots:\n%s", firstLineDiff(fresh, epoch2))
	}
	if hits1 == hits0 {
		t.Error("pool recorded no hits across two epochs — the differential never exercised reuse")
	}
}

func firstLineDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nfresh:  %s\npooled: %s", i+1, al[i], bl[i])
		}
	}
	return "outputs diverge in length only"
}

// TestPoolNoSecretLeak plants tenant data in a SoC's scratchpads,
// accumulators, and backing DRAM, releases it, and verifies the
// recycled instance exposes none of it: scratchpad lines are invalid,
// non-secure-tagged, and zero-filled; the physical pages are dropped.
func TestPoolNoSecretLeak(t *testing.T) {
	SetPooling(false) // drop any pooled instances from other tests
	SetPooling(true)
	defer SetPooling(true)

	cfg := npu.DefaultConfig()
	soc, err := AcquireSoC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	core, err := soc.NPU.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0xA5}, core.Scratchpad().LineBytes()+core.Accumulator().LineBytes())
	for _, sp := range []*spad.Scratchpad{core.Scratchpad(), core.Accumulator()} {
		line := secret[:sp.LineBytes()]
		if err := sp.Write(spad.NonSecure, 0, line); err != nil {
			t.Fatal(err)
		}
	}
	soc.Phys.Write(ReservedBase, secret)

	soc.Release()
	got, err := AcquireSoC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got != soc {
		t.Fatal("pool did not hand back the released SoC; leak check would be vacuous")
	}
	for k, v := range got.Stats.Snapshot() {
		// Keys survive Reset (warm handles); values must not.
		if v != 0 {
			t.Errorf("recycled SoC carries prior stats: %s=%d", k, v)
		}
	}

	for _, sp := range []*spad.Scratchpad{core.Scratchpad(), core.Accumulator()} {
		if sp.LineValid(0) {
			t.Error("recycled scratchpad line still marked valid")
		}
		if id := sp.LineID(0); id != spad.NonSecure {
			t.Errorf("recycled scratchpad line tagged domain %d, want non-secure", id)
		}
		buf := make([]byte, sp.LineBytes())
		if err := sp.Read(spad.NonSecure, 0, buf); err != nil {
			t.Fatal(err)
		}
		if i := bytes.IndexByte(buf, 0xA5); i >= 0 {
			t.Errorf("prior tenant's scratchpad byte observable at offset %d", i)
		}
	}
	buf := make([]byte, len(secret))
	got.Phys.Read(ReservedBase, buf)
	if i := bytes.IndexByte(buf, 0xA5); i >= 0 {
		t.Errorf("prior tenant's DRAM byte observable at offset %d", i)
	}
}
