package spad

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkResetSecure measures the secure instruction that returns a
// whole 256 KiB scratchpad (the default NPU core's geometry: 16-byte
// lines, parity on) to the normal world, zeroing every payload byte.
func BenchmarkResetSecure(b *testing.B) {
	const lines = 256 << 10 / 16
	s, err := New(Config{Lines: lines, LineBytes: 16, Kind: Exclusive, Isolated: true, Parity: true}, sim.NewStats())
	if err != nil {
		b.Fatal(err)
	}
	ctx := secureCtx()
	b.SetBytes(lines * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ResetSecure(ctx, 0, lines); err != nil {
			b.Fatal(err)
		}
	}
}
