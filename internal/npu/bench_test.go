package npu

import (
	"testing"

	"repro/internal/workload"
)

// benchProgram compiles yololite, the smallest built-in model and the
// one the golden cycle pins use, for the exec and measurement
// benchmarks.
func benchProgram(b *testing.B) (workload.Workload, *Program) {
	b.Helper()
	w, err := workload.Lookup("yololite")
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := Compile(w, DefaultConfig(), 0, DefaultLayout)
	if err != nil {
		b.Fatal(err)
	}
	return w, prog
}

// BenchmarkCompile measures an uncached yololite compile: tiling and
// op-stream emission, the cost a program-cache miss pays.
func BenchmarkCompile(b *testing.B) {
	w, _ := benchProgram(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compile(w, cfg, 0, DefaultLayout); err != nil {
			b.Fatal(err)
		}
	}
}

// measurementSink keeps BenchmarkMeasurement's digest live.
var measurementSink [32]byte

// BenchmarkMeasurement measures hashing yololite's op stream, the
// code-integrity digest the monitor checks on every secure submit.
func BenchmarkMeasurement(b *testing.B) {
	_, prog := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measurementSink = prog.Measurement()
	}
}

// BenchmarkExecRun measures one yololite inference on core 0 under
// identity translation: every DMA batch, DRAM channel claim and
// compute tile of the op stream. Timing resources are reset between
// iterations so each run starts from an idle NPU.
func BenchmarkExecRun(b *testing.B) {
	_, prog := benchProgram(b)
	n := testNPU(b, DefaultConfig(), nil)
	core, err := n.Core(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ResetTiming()
		if _, err := NewExec(core, prog, 1).Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
