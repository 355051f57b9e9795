package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	snpu "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cross-commit pins of every metrics export surface, byte for byte:
// snpu-sim -metrics (plain, secure, secure with a fixed fault plan),
// the serve daemon's GET /metrics after one episode, and snpu-bench
// -metrics-dir for fig13 and the small decode sweep. Regenerate with
//
//	go test ./cmd/snpu-bench -run TestMetricsExportsGolden -update-golden
//
// and review the diff: a counter rename, a vanished instrument or a
// changed value all show up here.

var metricsGoldenPath = filepath.Join("..", "..", "testdata", "metrics_exports.golden")

// goldenFaultPlan stalls one DMA burst early and hangs a core mid-run,
// so the dump carries retry, timeout, abort and restart counts.
const goldenFaultPlan = `{"events": [{"at": 1000, "kind": "dma-stall"}, {"at": 900000, "kind": "core-hang"}]}`

func TestMetricsExportsGolden(t *testing.T) {
	got := map[string]string{}
	readPair := func(key, prom string) {
		for _, p := range []string{prom, strings.TrimSuffix(prom, ".prom") + ".json"} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			got[key+"/"+filepath.Ext(p)[1:]] = string(b)
		}
	}

	tmp := t.TempDir()
	simBin := filepath.Join(tmp, "snpu-sim")
	if out, err := exec.Command("go", "build", "-o", simBin, "repro/cmd/snpu-sim").CombinedOutput(); err != nil {
		t.Fatalf("build snpu-sim: %v\n%s", err, out)
	}
	plan := filepath.Join(tmp, "plan.json")
	if err := os.WriteFile(plan, []byte(goldenFaultPlan), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"secure", []string{"-secure"}},
		{"faults", []string{"-secure", "-faults", plan}},
	} {
		prom := filepath.Join(tmp, c.name+".prom")
		args := append([]string{"-model", "yololite", "-metrics", prom}, c.args...)
		if out, err := exec.Command(simBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("snpu-sim %v: %v\n%s", args, err, out)
		}
		readPair("snpu-sim/"+c.name, prom)
	}

	got["serve/metrics"] = serveEpisodeMetrics(t)

	for _, o := range metricsDirRuns(t) {
		readPair("snpu-bench/"+o.exp, exportMetricsDir(t, o))
	}

	raw, err := os.ReadFile(metricsGoldenPath)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(metricsGoldenPath, []byte(renderSweepGolden(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := parseSweepGolden(string(raw))
	if renderSweepGolden(want) != string(raw) {
		t.Errorf("%s does not re-render from its entries (stray edit outside an entry?)", metricsGoldenPath)
	}
	for k, v := range got {
		if w, ok := want[k]; !ok || v != w {
			t.Errorf("%s differs from the committed export (present %v):\n--- got ---\n%s--- committed ---\n%s", k, ok, v, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("committed entry %s is no longer produced", k)
		}
	}
}

// metricsDirRuns are the pinned snpu-bench -metrics-dir invocations:
// -exp fig13 -models yololite and -exp decode -small.
func metricsDirRuns(t *testing.T) []options {
	t.Helper()
	yolo, err := workload.Lookup("yololite")
	if err != nil {
		t.Fatal(err)
	}
	return []options{
		{exp: "fig13", models: []workload.Workload{yolo}, seed: 1},
		{exp: "decode", models: []workload.Workload{yolo}, seed: 1, small: true},
	}
}

// exportMetricsDir runs one experiment with a fresh -metrics-dir and
// returns the path of its Prometheus dump (the JSON one sits next to
// it).
func exportMetricsDir(t *testing.T, o options) string {
	t.Helper()
	o.metricsDir = t.TempDir()
	if _, err := runSuite(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(o.metricsDir, o.exp+".prom")
}

// TestMetricsDirExportsCellCounters: a -metrics-dir dump carries what
// the experiment's SoCs counted, although every cell releases (and so
// resets) its SoC before the export reads the counters.
func TestMetricsDirExportsCellCounters(t *testing.T) {
	nonzero := map[string][]string{
		"fig13":  {sim.CtrDMARequests, sim.CtrGuarderChecks},
		"decode": {sim.CtrMonitorCalls},
	}
	for _, o := range metricsDirRuns(t) {
		b, err := os.ReadFile(strings.TrimSuffix(exportMetricsDir(t, o), ".prom") + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(b, &dump); err != nil {
			t.Fatal(err)
		}
		for _, name := range nonzero[o.exp] {
			if dump.Counters[name] <= 0 {
				t.Errorf("%s.json: %s = %d, want > 0", o.exp, name, dump.Counters[name])
			}
		}
	}
}

// serveEpisodeMetrics runs the serve package's end-to-end episode (one
// keyed secure tenant, two plain requests) on an observed system and
// returns the body of GET /metrics.
func serveEpisodeMetrics(t *testing.T) string {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableObservability(obs.Config{})
	srv, err := serve.New(sys, serve.Config{Cores: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	do := func(method, path string, body any, want int) string {
		var r *strings.Reader
		if body == nil {
			r = strings.NewReader("")
		} else {
			b, _ := json.Marshal(body)
			r = strings.NewReader(string(b))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, r))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	key := bytes.Repeat([]byte{7}, snpu.SealKeySize)
	sealed, err := snpu.SealModel(key, []byte("tenant-a model weights"))
	if err != nil {
		t.Fatal(err)
	}
	do("POST", "/v1/keys", serve.KeyRequest{KeyID: "ka", KeyB64: base64.StdEncoding.EncodeToString(key)}, http.StatusNoContent)
	for _, sr := range []serve.SubmitRequest{
		{Tenant: "a", Model: "mobilenet", Secure: true, KeyID: "ka", SealedB64: base64.StdEncoding.EncodeToString(sealed)},
		{Tenant: "b", Model: "resnet"},
		{Tenant: "b", Model: "mobilenet", Arrival: 5000},
	} {
		do("POST", "/v1/submit", sr, http.StatusAccepted)
	}
	do("POST", "/v1/run", nil, http.StatusOK)
	return do("GET", "/metrics", nil, http.StatusOK)
}
