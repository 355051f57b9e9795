package sim

import "testing"

// BenchmarkEngineScheduleDrain measures the event-queue hot path: the
// cost of scheduling and firing events, including per-event allocation.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1024; j++ {
			e.Schedule(Cycle(j%64), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineInterleaved measures the steady-state pattern the
// executors produce: each fired event schedules a successor.
func BenchmarkEngineInterleaved(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var step func()
		step = func() {
			if n < 4096 {
				n++
				e.After(3, step)
			}
		}
		e.After(0, step)
		e.Run()
	}
}

// BenchmarkResourceClaim measures the serialized-resource grant path
// (one claim per DMA batch / NoC link per packet).
func BenchmarkResourceClaim(b *testing.B) {
	b.ReportAllocs()
	r := NewResource("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Claim(Cycle(i), 4)
	}
}

// BenchmarkStatsAddID measures the typed-ID increment every component
// uses on the simulation path: an array add, no lookup.
func BenchmarkStatsAddID(b *testing.B) {
	b.ReportAllocs()
	s := NewStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddID(IDNoCFlits, 1)
	}
}
