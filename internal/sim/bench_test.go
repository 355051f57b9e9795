package sim

import "testing"

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
