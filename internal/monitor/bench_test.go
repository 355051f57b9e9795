package monitor

import "testing"

// BenchmarkMonitorCall measures trampoline entries: a §IV-B context
// switch of a resident secure task (FnLoad, then FnPreempt's scrub and
// register invalidation) and a refused call (FnPreempt of an unknown
// task). Each entry counts monitor.calls, plus monitor.preempt.count
// or monitor.rejected, in the system's typed counters.
func BenchmarkMonitorCall(b *testing.B) {
	b.Run("load-preempt", func(b *testing.B) {
		w := bootWorld(b)
		prog := testProgram(b)
		id, err := w.mon.Submit(TaskSpec{Program: prog, Expected: prog.Measurement()})
		if err != nil {
			b.Fatal(err)
		}
		load := Call{Func: FnLoad, Args: []uint64{uint64(id), 0, 64, 0}}
		preempt := Call{Func: FnPreempt, Args: []uint64{uint64(id)}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := w.mon.Dispatch(load); rep.Err != nil {
				b.Fatal(rep.Err)
			}
			if rep := w.mon.Dispatch(preempt); rep.Err != nil {
				b.Fatal(rep.Err)
			}
		}
	})
	b.Run("rejected", func(b *testing.B) {
		w := bootWorld(b)
		unknown := Call{Func: FnPreempt, Args: []uint64{42}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := w.mon.Dispatch(unknown); rep.Err == nil {
				b.Fatal("preempt of an unknown task accepted")
			}
		}
	})
}
