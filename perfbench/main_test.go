package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	snpu "repro"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{200, 95, 190},
		{20, 50, 10},
		{5, 50, 3},
	} {
		p, v, n := tail(series(tc.n), tc.n)
		if p != tc.wantP || v != tc.wantV || n != tc.n {
			t.Errorf("tail of %d samples = p%g %g (n=%d), want p%g %g", tc.n, p, v, n, tc.wantP, tc.wantV)
		}
		if p > 50 {
			beyond := 0
			for _, x := range series(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailMin {
				t.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", p, tc.n, beyond, tailMin)
			}
		}
	}
	if p, v, n := tail(nil, 0); p != 0 || v != 0 || n != 0 {
		t.Errorf("tail(nil) = %g %g %d", p, v, n)
	}
	// 1800 requests in 50 episodes: ten episodes beyond allows p75 only.
	if p, _, n := tail(series(1800), 50); p != 75 || n != 1800 {
		t.Errorf("tail of 1800 samples in 50 groups = p%g (n=%d), want p75", p, n)
	}
}

// generated renders every seeded input of a run as bytes.
func generated(seed int64) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	rates, traces := serveTraceSet(seed)
	_ = enc.Encode(rates)
	_ = enc.Encode(traces)
	for k := 0; k < decodeTraces; k++ {
		_ = enc.Encode(decodeTrace(subSeed(seed, "decode", k)))
	}
	for i := 0; i < 64; i++ {
		data, _ := graph.Marshal(irVariant(seed, i))
		b.Write(data)
	}
	for t := 0; t < serveTenants; t++ {
		b.Write(tenantKey(seed, t))
	}
	return b.Bytes()
}

func TestGeneratorsByteIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := generated(7)
	runtime.GOMAXPROCS(2)
	two := generated(7)
	if !bytes.Equal(one, two) {
		t.Fatal("seed 7 generated different inputs at GOMAXPROCS 1 and 2")
	}
	if bytes.Equal(one, generated(8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

func TestServeTraceShape(t *testing.T) {
	for _, rate := range serveRates {
		tr := serveTrace(3, rate)
		if len(tr) != serveTraceLen {
			t.Fatalf("trace length %d", len(tr))
		}
		secure, deadlines := 0, 0
		for i, r := range tr {
			if i > 0 && r.Arrival < tr[i-1].Arrival {
				t.Fatalf("arrivals out of order at %d", i)
			}
			if r.Secure {
				secure++
			}
			if r.Deadline != 0 {
				deadlines++
			}
		}
		if secure != serveTraceLen/2 || deadlines != serveTraceLen/serveDeadlineIn {
			t.Errorf("rate %g: %d secure, %d deadlines", rate, secure, deadlines)
		}
	}
}

func TestEveryGeneratedIRValidates(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 200; i++ {
			m := irVariant(seed, i)
			data, err := graph.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := graph.Parse(data)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, i, err)
			}
			if err := parsed.Validate(); err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, i, err)
			}
			w, err := graph.LowerBytes(data)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, i, err)
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, i, err)
			}
			if seed == 1 {
				m.Name = ""
				shape, _ := graph.Marshal(m)
				key := string(shape)
				if seen[key] {
					t.Fatalf("variant %d repeats an earlier shape", i)
				}
				seen[key] = true
			}
		}
	}
}

func TestDecisionHashMatchesReport(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []string{"yololite", "mobilenet", "yololite"} {
		if err := sc.Submit(sched.Request{ID: i + 1, Tenant: "t0", Model: m, Arrival: sim.Cycle(i) * 1000}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var log, shifted []string
	for _, d := range rep.Decisions {
		log = append(log, d.String())
		d.Req += 100
		shifted = append(shifted, d.String())
	}
	if got := decisionHash(log, 1); got != rep.DecisionHash() {
		t.Fatalf("decisionHash = %x, Report.DecisionHash = %x", got, rep.DecisionHash())
	}
	if got := decisionHash(shifted, 101); got != rep.DecisionHash() {
		t.Fatalf("renumbered hash = %x, want %x", got, rep.DecisionHash())
	}
	if decisionHash(shifted, 100) == rep.DecisionHash() {
		t.Fatal("a wrong base renumbered to the same hash")
	}
}

func TestPlantedWrongReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one paper pass")
	}
	const key = "fig13/yololite/none"
	saved := reference[key]
	reference[key] = saved + 1
	defer func() { reference[key] = saved }()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "paper", "--seed", "1", "--seconds", "0"}, &out, &errOut)
	if code == 0 {
		t.Fatalf("run exited 0 with a wrong reference; stderr:\n%s", errOut.String())
	}
	var r result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("no result line: %v\n%s", err, out.String())
	}
	if r.Correct || r.Failed < 1 || r.Attempted < len(reference) {
		t.Fatalf("result %+v, want a failed, incorrect run over every cell", r)
	}
	if ratio(float64(r.Failed), float64(r.Attempted)) <= 0 {
		t.Fatal("error ratio is not positive")
	}
}

func TestTracedRunReportsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two short traced windows")
	}
	for _, tc := range []struct {
		workload string
		want     []string
	}{
		{"decode", []string{"sched.run_ms", "spad.flush_mb", "monitor.calls", "sched.sim_tokens_per_s", "sim.mcyc_per_s"}},
		{"byom", []string{"graph.lower_ms", "graph.nodes", "npu.compile_ms", "npu.measure_ms"}},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", tc.workload, "--seconds", "0.4", "--trace", "1", "--root", "..", "--out", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", tc.workload, code, errOut.String())
		}
		var r result
		if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &r); err != nil {
			t.Fatal(err)
		}
		if err := conform(r.Metrics, perLayerMetrics); err != nil {
			t.Errorf("%s: %v", tc.workload, err)
		}
		for _, name := range tc.want {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s: traced run reads %s = %g, want > 0", tc.workload, name, r.Metrics[name].Value)
			}
		}
	}
}

func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "byom", "--seconds", "0.2", "--root", ".."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	var r result
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &r); err != nil {
		t.Fatal(err)
	}
	if err := conform(r.Metrics, endToEndMetrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, m.Value)
		}
	}
}

// TestTablesMatchManifest pins the metric tables to BENCHMARK.json, so
// a run prints every metric the manifest declares, in its unit.
func TestTablesMatchManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var m struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key   string
		got   []def
		table []metricDef
	}{{"end_to_end", m.EndToEnd, endToEndMetrics}, {"per_layer", m.PerLayer, perLayerMetrics}} {
		var want []def
		for _, d := range tc.table {
			want = append(want, def{d.name, d.unit})
		}
		if !slices.Equal(tc.got, want) {
			t.Errorf("%s in BENCHMARK.json:\n%v\ntable:\n%v", tc.key, tc.got, want)
		}
	}
}

func TestBucketProfileAttributesToLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	s := sim.NewStats()
	names := []string{"a.x", "b.y", "c.z"}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			s.Inc(names[i%3])
		}
	}
	pprof.StopCPUProfile()
	lp, err := bucketProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if lp.self["sim"] <= 0 || lp.cum["sim"] < lp.self["sim"] {
		t.Fatalf("sim self %v cum %v; buckets %v", lp.self["sim"], lp.cum["sim"], lp.self)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Stats).Counter":      "sim",
		"repro/internal/serve.(*Server).handleRun": "serve",
		"repro/internal/npu.Compile.func1":         "npu",
		"repro.(*System).NewScheduler":             "snpu",
		"runtime.mapaccess2_faststr":               "",
		"main.(*paper).step":                       "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
