package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllModelsValidate(t *testing.T) {
	for _, w := range All() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.MACs() <= 0 {
			t.Errorf("%s: non-positive MAC count", w.Name)
		}
		if w.WeightBytes() <= 0 {
			t.Errorf("%s: non-positive weight bytes", w.Name)
		}
	}
}

func TestLookupEvaluationSet(t *testing.T) {
	for _, name := range []string{"googlenet", "alexnet", "yololite", "mobilenet", "resnet", "bert"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name != name {
			t.Fatalf("got %q", w.Name)
		}
	}
	if _, err := Lookup("vgg"); err == nil {
		t.Fatal("unknown model found")
	}
}

// Sanity-check the lowered model sizes against published figures.
func TestModelScaleSanity(t *testing.T) {
	cases := []struct {
		name                     string
		minGMACs, maxGMACs       float64
		minWeightMB, maxWeightMB float64
	}{
		// Published MAC counts (batch 1): AlexNet ~0.7G, GoogleNet
		// ~1.5G, ResNet-50 ~3.8-4.1G, MobileNetV1 ~0.57G, YOLO-lite
		// ~0.2-0.5G, BERT-base@128 ~11G (22 GFLOPs).
		{"alexnet", 0.5, 1.2, 40, 80},
		{"googlenet", 1.0, 2.2, 5, 15},
		{"resnet", 3.0, 4.6, 20, 40},
		{"mobilenet", 0.4, 0.8, 3, 6},
		{"yololite", 0.1, 1.0, 0.2, 3},
		{"bert", 8, 14, 80, 120},
	}
	for _, c := range cases {
		w, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		gmacs := float64(w.MACs()) / 1e9
		if gmacs < c.minGMACs || gmacs > c.maxGMACs {
			t.Errorf("%s: %.2f GMACs outside [%v,%v]", c.name, gmacs, c.minGMACs, c.maxGMACs)
		}
		wmb := float64(w.WeightBytes()) / (1 << 20)
		if wmb < c.minWeightMB || wmb > c.maxWeightMB {
			t.Errorf("%s: %.1f MB weights outside [%v,%v]", c.name, wmb, c.minWeightMB, c.maxWeightMB)
		}
	}
}

func TestConvLowering(t *testing.T) {
	g := conv("c", 27, 27, 96, 256, 5, 1, 2)
	if g.M != 27*27 || g.K != 96*25 || g.N != 256 {
		t.Fatalf("conv2 lowering = %dx%dx%d", g.M, g.K, g.N)
	}
	g = conv("c1", 227, 227, 3, 96, 11, 4, 0)
	if g.M != 55*55 {
		t.Fatalf("stride-4 conv M = %d, want 3025", g.M)
	}
}

func TestDWConvEfficiencyPenalty(t *testing.T) {
	g := dwconv("dw", 112, 112, 64, 3, 1, 1)
	if g.Eff() >= 1.0 {
		t.Fatal("depthwise conv should carry an efficiency penalty")
	}
	if g.MACs() != int64(112*112)*9*64 {
		t.Fatalf("dw MACs = %d", g.MACs())
	}
}

func TestGEMMValidate(t *testing.T) {
	if err := (GEMM{M: 0, K: 1, N: 1}).Validate(); err == nil {
		t.Fatal("zero-M GEMM validated")
	}
	if (GEMM{M: 1, K: 1, N: 1}).Eff() != 1.0 {
		t.Fatal("default efficiency should be 1.0")
	}
}

func TestWorkloadValidateEmpty(t *testing.T) {
	if err := (Workload{Name: "x"}).Validate(); err == nil {
		t.Fatal("empty workload validated")
	}
	if err := (Workload{Name: "x", Layers: []Layer{{Name: "l"}}}).Validate(); err == nil {
		t.Fatal("empty layer validated")
	}
}

func TestChooseTilingFitsBudget(t *testing.T) {
	g := GEMM{Name: "t", M: 512, K: 1024, N: 256}
	for _, budget := range []int{32 << 10, 64 << 10, 256 << 10} {
		tl, err := ChooseTiling(g, budget, 16)
		if err != nil {
			t.Fatal(err)
		}
		footprint := 2*(tl.Mt*tl.Kt+tl.Kt*tl.Nt) + tl.Mt*tl.Nt
		if footprint > budget {
			t.Fatalf("budget %d: tiling %+v uses %d bytes", budget, tl, footprint)
		}
		if tl.Mt <= 0 || tl.Kt <= 0 || tl.Nt <= 0 {
			t.Fatalf("degenerate tiling %+v", tl)
		}
	}
}

func TestTilingTrafficMonotoneInBudget(t *testing.T) {
	g := GEMM{Name: "t", M: 1024, K: 2048, N: 512}
	small, err := ChooseTiling(g, 16<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ChooseTiling(g, 512<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if small.DRAMTrafficBytes() <= large.DRAMTrafficBytes() {
		t.Fatalf("smaller scratchpad should cost more traffic: %d vs %d",
			small.DRAMTrafficBytes(), large.DRAMTrafficBytes())
	}
	// Traffic never goes below the compulsory bytes.
	compulsory := g.InputBytes() + g.WeightBytes() + g.OutputBytes()
	if large.DRAMTrafficBytes() < compulsory {
		t.Fatalf("traffic %d below compulsory %d", large.DRAMTrafficBytes(), compulsory)
	}
}

func TestChooseTilingBadArgs(t *testing.T) {
	g := GEMM{Name: "t", M: 16, K: 16, N: 16}
	if _, err := ChooseTiling(g, 0, 16); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := ChooseTiling(GEMM{}, 1024, 16); err == nil {
		t.Fatal("invalid GEMM accepted")
	}
}

func TestChooseTilingTinyBudgetFallsBack(t *testing.T) {
	g := GEMM{Name: "t", M: 256, K: 256, N: 256}
	tl, err := ChooseTiling(g, 64, 16) // absurdly small
	if err != nil {
		t.Fatal(err)
	}
	if tl.Mt != 16 || tl.Kt != 16 || tl.Nt != 16 {
		t.Fatalf("fallback tiling = %+v", tl)
	}
}

func TestTilingCountsCoverProblem(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GEMM{Name: "p", M: rng.Intn(2000) + 1, K: rng.Intn(3000) + 1, N: rng.Intn(1500) + 1}
		tl, err := ChooseTiling(g, 256<<10, 16)
		if err != nil {
			return false
		}
		mc, kc, nc := tl.Counts()
		// Tiles cover the problem exactly.
		if mc*tl.Mt < g.M || kc*tl.Kt < g.K || nc*tl.Nt < g.N {
			return false
		}
		if (mc-1)*tl.Mt >= g.M || (kc-1)*tl.Kt >= g.K || (nc-1)*tl.Nt >= g.N {
			return false
		}
		if tl.Iterations() != mc*kc*nc {
			return false
		}
		// Compute cycles are at least the ideal (peak-rate) bound.
		if tl.ComputeCycles(16) < IdealComputeCycles(g, 16) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeCyclesEfficiencyScaling(t *testing.T) {
	g := GEMM{Name: "e", M: 256, K: 256, N: 256}
	tl, err := ChooseTiling(g, 256<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	base := tl.ComputeCycles(16)
	tl.G.Efficiency = 0.5
	if got := tl.ComputeCycles(16); got < 2*base-4 || got > 2*base+4 {
		t.Fatalf("efficiency 0.5 cycles = %d, want ~%d", got, 2*base)
	}
}

func TestBERTStructure(t *testing.T) {
	w := BERT(BERTBase)
	// 12 encoder layers x (attn + ffn) = 24 layers.
	if len(w.Layers) != 24 {
		t.Fatalf("bert layers = %d", len(w.Layers))
	}
	// Attention layer: 3 proj + 12 heads x 2 + 1 out = 28 GEMMs.
	if got := len(w.Layers[0].GEMMs); got != 28 {
		t.Fatalf("attn GEMMs = %d", got)
	}
}

func TestResNetStructure(t *testing.T) {
	w := ResNet()
	// conv1 + 16 bottlenecks + fc = 18 layers.
	if len(w.Layers) != 18 {
		t.Fatalf("resnet layers = %d", len(w.Layers))
	}
}
