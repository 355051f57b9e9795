package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/npu"
	"repro/internal/sim"
)

var updateCounterGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// counterGoldenPath pins every nonzero counter of two yololite cells:
// the Fig. 13 iotlb-32 contended pair and the Fig. 17 software-NoC
// block. The pin is on counter values, not just cycles, so a change to
// how or where components count fails here even when timing holds.
const counterGoldenPath = "testdata/counters_yololite.golden"

// derivedIOTLBKeys are checked through identities rather than pinned:
// hits + misses == lookups and misses == pagewalks.
var derivedIOTLBKeys = map[string]bool{sim.CtrIOTLBHits: true, sim.CtrIOTLBMisses: true}

// renderNonzero lists a snapshot's nonzero counters as "cell name=value"
// lines, sorted by name.
func renderNonzero(b *strings.Builder, cell string, snap map[string]int64) {
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 && !derivedIOTLBKeys[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "%s %s=%d\n", cell, name, snap[name])
	}
}

// checkIOTLBIdentities asserts the per-packet IOTLB model's identities.
func checkIOTLBIdentities(t *testing.T, cell string, snap map[string]int64) {
	t.Helper()
	hits, misses := snap[sim.CtrIOTLBHits], snap[sim.CtrIOTLBMisses]
	if hits+misses != snap[sim.CtrIOTLBLookups] {
		t.Errorf("%s: iotlb hits %d + misses %d != lookups %d", cell, hits, misses, snap[sim.CtrIOTLBLookups])
	}
	if misses != snap[sim.CtrPageWalks] {
		t.Errorf("%s: iotlb misses %d != pagewalks %d", cell, misses, snap[sim.CtrPageWalks])
	}
}

func TestGoldenCounterSnapshot(t *testing.T) {
	w := goldenModel(t, "yololite")
	cfg := npu.DefaultConfig()
	var b strings.Builder

	_, snap13, err := RunContended(w, Mechanism{Name: "iotlb-32", IOTLBEntries: 32}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderNonzero(&b, "fig13/yololite/iotlb-32", snap13)
	checkIOTLBIdentities(t, "fig13", snap13)
	if snap13[sim.CtrIOTLBLookups] == 0 {
		t.Fatal("fig13 iotlb-32 cell made no IOTLB lookups")
	}

	soc, err := AcquireSoC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soc.NPU.RunModelParallel(w, []int{0, 1, 5, 6}, npu.TransferSharedMemory, fig17ShmVA, nil); err != nil {
		t.Fatal(err)
	}
	snap17 := soc.Stats.Snapshot()
	soc.Release()
	renderNonzero(&b, "fig17/yololite/software-noc", snap17)
	checkIOTLBIdentities(t, "fig17", snap17)

	got := b.String()
	if *updateCounterGolden {
		if err := os.MkdirAll(filepath.Dir(counterGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(counterGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(counterGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record)", err)
	}
	if got != string(want) {
		t.Errorf("counter snapshot drifted from %s:\ngot:\n%s\nwant:\n%s", counterGoldenPath, got, want)
	}
}
