package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	snpu "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Metrics support for the bench harness: -metrics-dir exports one
// Prometheus/JSON metrics pair per experiment (aggregated over every
// SoC the experiment booted), and -metrics-overhead measures the
// enabled-vs-disabled cost of the observability layer on a fixed
// workload, which CI gates at metricsOverheadLimitPct.

// metricsOverheadLimitPct is the acceptance ceiling for the
// observability layer's measured wall-time overhead.
const metricsOverheadLimitPct = 2.0

// writeExperimentMetrics aggregates the counter sinks of every SoC an
// experiment booted and writes dir/<name>.prom and dir/<name>.json.
// Each dump lists every typed counter, zeros included; summing across
// sinks is commutative, so the files are byte-identical at any -j.
func writeExperimentMetrics(dir, name string, sinks []*sim.Stats) error {
	reg := obs.NewRegistry()
	for _, s := range sinks {
		reg.AttachStats(s)
	}
	promPath := filepath.Join(dir, name+".prom")
	f, err := os.Create(promPath)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// overheadProbeRounds / overheadProbeRepeats size the overhead
// measurement: each round times overheadProbeRepeats back-to-back
// inferences and the best round is kept, which filters scheduler
// noise the way testing.B's best-of repetitions do.
const (
	overheadProbeRounds  = 5
	overheadProbeRepeats = 3
	overheadProbeModel   = "yololite"
)

// probeMetricsWall times the probe workload on a freshly booted
// protected SoC, with or without the observability layer, returning
// the best round's wall time and the (deterministic) cycle count.
func probeMetricsWall(enable bool) (time.Duration, sim.Cycle, error) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	if enable {
		sys.EnableObservability(obs.Config{})
	}
	// Warmup run: pays one-time compilation/alloc costs and pins the
	// cycle count the timed rounds must reproduce.
	res, err := sys.RunModel(overheadProbeModel)
	if err != nil {
		return 0, 0, err
	}
	best := time.Duration(0)
	for r := 0; r < overheadProbeRounds; r++ {
		start := time.Now()
		for i := 0; i < overheadProbeRepeats; i++ {
			rr, err := sys.RunModel(overheadProbeModel)
			if err != nil {
				return 0, 0, err
			}
			if rr.Cycles != res.Cycles {
				return 0, 0, fmt.Errorf("metrics probe: cycle drift across repeats (%d vs %d)", rr.Cycles, res.Cycles)
			}
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, res.Cycles, nil
}

// measureMetricsOverhead reports the observability layer's wall-time
// overhead in percent on the probe workload. It also proves the layer
// is passive: the simulated cycle count must be identical with the
// layer on and off, or the probe errors out.
func measureMetricsOverhead() (float64, error) {
	offWall, offCycles, err := probeMetricsWall(false)
	if err != nil {
		return 0, err
	}
	onWall, onCycles, err := probeMetricsWall(true)
	if err != nil {
		return 0, err
	}
	if onCycles != offCycles {
		return 0, fmt.Errorf("metrics probe: observability changed simulated timing (%d cycles enabled vs %d disabled)",
			onCycles, offCycles)
	}
	// The delta is kept signed: a negative reading (enabled measured
	// faster) is scheduler noise and is recorded as such rather than
	// rounded to a too-clean zero.
	return (float64(onWall) - float64(offWall)) / float64(offWall) * 100, nil
}

// collectExperimentMetrics wraps one experiment run with a stats
// collection window and writes its aggregated metrics files.
func collectExperimentMetrics(dir, name string, run func() error) error {
	experiments.CollectSoCStats(true)
	defer experiments.CollectSoCStats(false)
	if err := run(); err != nil {
		return err
	}
	return writeExperimentMetrics(dir, name, experiments.DrainSoCStats())
}
