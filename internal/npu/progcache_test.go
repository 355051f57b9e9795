package npu

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// TestCompileCachedSharesPrograms pins the cache contract: identical
// (workload, cfg, budget, layout) requests share one *Program, any
// differing key component compiles fresh, and the compiled output is
// identical to an uncached Compile.
func TestCompileCachedSharesPrograms(t *testing.T) {
	ResetProgCache()
	w, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	p1, st1, err := CompileCached(w, cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := CompileCached(w, cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical requests returned distinct programs")
	}
	if hits, misses := ProgCacheCounters(); hits != 1 || misses != 1 {
		t.Errorf("counters = %d hits / %d misses, want 1/1", hits, misses)
	}

	direct, stDirect, err := Compile(w, cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Ops) != len(p1.Ops) || st1 != stDirect {
		t.Errorf("cached compile diverges from direct: %d vs %d ops, stats %+v vs %+v",
			len(p1.Ops), len(direct.Ops), st1, stDirect)
	}

	// Any key component change must miss: layout...
	p3, _, err := CompileCached(w, cfg, 0, Layout{WeightBase: 0x4000_0000})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different layout shared a program")
	}
	// ...and workload structure, even at an identical Name.
	clone := w
	clone.Layers = append([]workload.Layer(nil), w.Layers...)
	clone.Layers[0].GEMMs = append([]workload.GEMM(nil), w.Layers[0].GEMMs...)
	clone.Layers[0].GEMMs[0].M++
	p4, _, err := CompileCached(clone, cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Error("structurally different workload with the same Name shared a program")
	}
}

// TestCompileCachedEviction fills the cache past its bound and checks
// the wholesale drop: no entry count ever exceeds progCacheMax, and a
// dropped key simply recompiles.
func TestCompileCachedEviction(t *testing.T) {
	ResetProgCache()
	defer ResetProgCache()
	w, err := workload.Lookup("mobilenet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for i := 0; i < progCacheMax+4; i++ {
		layout := Layout{WeightBase: mem.VirtAddr(0x1000_0000 + i*0x10_0000)}
		if _, _, err := CompileCached(w, cfg, 0, layout); err != nil {
			t.Fatal(err)
		}
		progCache.Lock()
		n := len(progCache.m)
		progCache.Unlock()
		if n > progCacheMax {
			t.Fatalf("cache grew to %d entries (bound %d)", n, progCacheMax)
		}
	}
	if _, _, err := CompileCached(w, cfg, 0, Layout{WeightBase: 0x1000_0000}); err != nil {
		t.Fatalf("recompile after eviction: %v", err)
	}
}

// TestCompileCachedConcurrent hammers one key from many goroutines;
// under -race this doubles as the data-race check for the
// compile-outside-the-lock window. All callers must end up with the
// same program instance (first entry wins).
func TestCompileCachedConcurrent(t *testing.T) {
	ResetProgCache()
	defer ResetProgCache()
	w, err := workload.Lookup("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	const n = 8
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := CompileCached(w, cfg, 0, DefaultLayout)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	// The instance every caller holds must be the one now cached.
	cached, _, err := CompileCached(w, cfg, 0, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if p != cached {
			t.Fatalf("goroutine %d holds a non-canonical program", i)
		}
	}
}

// TestCompileOpCountExact pins the zero-growth property of the op
// stream: countOps presizes the Ops slice exactly, so compilation
// performs one allocation for the stream and append never regrows it.
func TestCompileOpCountExact(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range []string{"alexnet", "yololite", "mobilenet"} {
		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []Layout{DefaultLayout, {WeightBase: 0x4000_0000}} {
			p, _, err := Compile(w, cfg, 0, layout)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Ops) != cap(p.Ops) {
				t.Errorf("%s: ops len %d != cap %d — countOps mispredicted", name, len(p.Ops), cap(p.Ops))
			}
		}
	}
}
