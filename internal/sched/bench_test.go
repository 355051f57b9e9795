package sched_test

import (
	"testing"

	snpu "repro"
	"repro/internal/sched"
	"repro/internal/schedgen"
)

// BenchmarkSchedRun times one scheduling episode, Submit through Run,
// on a freshly booted System: "conventional" replays the runTrace
// episode (24 mixed secure/plain requests on 4 cores), "decode" the
// decodeTrace episode (continuous decode batches with a secure
// preemptor on 2 cores). Booting the System and provisioning its keys
// happen outside the timer; the process-global compile cache is warm
// after the first iteration, so the steady state measures the event
// loop, monitor calls and tile-slice execution.
func BenchmarkSchedRun(b *testing.B) {
	const seed = 7
	sealed, err := schedgen.SealedSet(seed, 3, []byte("determinism model"))
	if err != nil {
		b.Fatal(err)
	}
	episodes := []struct {
		name    string
		tenants int
		cfg     sched.Config
		reqs    []sched.Request
	}{
		{"conventional", 3, sched.Config{Cores: []int{0, 1, 2, 3}}, snpu.ServeTrace(seed, 0.3, 24, 3)},
		{"decode", 2, sched.Config{Cores: []int{0, 1}, MaxBatch: 3}, decodeTrace(seed)},
	}
	for _, ep := range episodes {
		b.Run(ep.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := snpu.New(snpu.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if err := schedgen.ProvisionKeys(sys, seed, ep.tenants); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				sc, err := sys.NewScheduler(ep.cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range ep.reqs {
					if r.Secure && r.Decode == nil {
						r.Sealed = sealed[r.KeyID]
					}
					if err := sc.Submit(r); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sc.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
