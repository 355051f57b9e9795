package workload

import "testing"

func TestExtrasValidate(t *testing.T) {
	for _, w := range Extras() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestVGG16Scale(t *testing.T) {
	w := VGG16()
	// Published VGG16: ~15.5 GMACs, ~138 M parameters.
	gmacs := float64(w.MACs()) / 1e9
	if gmacs < 13 || gmacs > 18 {
		t.Fatalf("vgg16 = %.1f GMACs", gmacs)
	}
	params := float64(w.WeightBytes()) / 1e6
	if params < 120 || params > 150 {
		t.Fatalf("vgg16 = %.0f M params", params)
	}
	if len(w.Layers) != 16 {
		t.Fatalf("vgg16 layers = %d", len(w.Layers))
	}
}

func TestGPTDecodeStepShape(t *testing.T) {
	w := GPTSmallDecode()
	// Decode-step MACs ≈ 2 x parameter count of the blocks plus
	// attention over the context; GPT-2 small blocks ~85 M params.
	gmacs := float64(w.MACs()) / 1e9
	if gmacs < 0.05 || gmacs > 0.3 {
		t.Fatalf("gpt decode = %.3f GMACs", gmacs)
	}
	// Every GEMM is M=1 (single-token decode).
	for _, l := range w.Layers {
		for _, g := range l.GEMMs {
			if g.M != 1 {
				t.Fatalf("%s has M=%d", g.Name, g.M)
			}
		}
	}
}

func TestDLRMChains(t *testing.T) {
	w := DLRM()
	prev := 0
	for i, l := range w.Layers {
		g := l.GEMMs[0]
		if i > 0 && g.K != prev {
			t.Fatalf("layer %d K=%d, want %d", i, g.K, prev)
		}
		prev = g.N
	}
	if prev != 1 {
		t.Fatalf("final output dim = %d", prev)
	}
}

// One lookup path resolves the evaluation set and the extras alike.
func TestByNameExtended(t *testing.T) {
	for _, name := range []string{"resnet", "vgg16", "gpt-decode", "dlrm"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name != name {
			t.Fatalf("%s: got %q", name, w.Name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown model found")
	}
}

// The extras must compile and tile under the default scratchpad — the
// decode step's M=1 GEMMs stress the tiler's degenerate dimension.
func TestExtrasTile(t *testing.T) {
	for _, w := range Extras() {
		for _, l := range w.Layers {
			for _, g := range l.GEMMs {
				tl, err := ChooseTiling(g, 256<<10, 16)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, g.Name, err)
				}
				if tl.Iterations() <= 0 {
					t.Fatalf("%s/%s: no iterations", w.Name, g.Name)
				}
			}
		}
	}
}
