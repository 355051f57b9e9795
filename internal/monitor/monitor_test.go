package monitor

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/guarder"
	"repro/internal/isolator"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/taskimage"
	"repro/internal/tee"
	"repro/internal/workload"
)

const (
	secureBase = mem.PhysAddr(0x9000_0000)
	secureSize = uint64(128 << 20)
)

type world struct {
	machine  *tee.Machine
	acc      *npu.NPU
	mon      *Monitor
	guarders map[int]*guarder.Guarder
	stats    *sim.Stats
}

func bootWorld(t testing.TB) *world {
	t.Helper()
	stats := sim.NewStats()
	phys := mem.NewPhysical()
	machine := tee.NewMachine(phys)
	loader, fw, teeos, monBlob := []byte("ldr"), []byte("fw"), []byte("teeos"), []byte("npu-monitor")
	for name, blob := range map[string][]byte{} {
		_ = name
		_ = blob
	}
	machine.BootChain().AddStage("trusted-loader", tee.MeasureBytes(loader))
	machine.BootChain().AddStage("trusted-firmware", tee.MeasureBytes(fw))
	machine.BootChain().AddStage("teeos", tee.MeasureBytes(teeos))
	machine.BootChain().AddStage("npu-monitor", tee.MeasureBytes(monBlob))
	if err := machine.Boot([][]byte{loader, fw, teeos, monBlob}); err != nil {
		t.Fatal(err)
	}
	acc, err := npu.New(npu.DefaultConfig(), phys, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	guarders := make(map[int]*guarder.Guarder)
	for i := range acc.Cores() {
		guarders[i] = guarder.NewDefault(stats)
	}
	mon, err := New(machine, acc, guarders, secureBase, secureSize, stats)
	if err != nil {
		t.Fatal(err)
	}
	return &world{machine: machine, acc: acc, mon: mon, guarders: guarders, stats: stats}
}

func testProgram(t testing.TB) *npu.Program {
	t.Helper()
	w := workload.Workload{
		Name: "sec",
		Layers: []workload.Layer{
			{Name: "l0", GEMMs: []workload.GEMM{{Name: "g0", M: 32, K: 64, N: 32}}},
		},
	}
	prog, _, err := npu.Compile(w, npu.DefaultConfig(), 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestMonitorRequiresSecureBoot(t *testing.T) {
	phys := mem.NewPhysical()
	machine := tee.NewMachine(phys) // never booted
	acc, err := npu.New(npu.DefaultConfig(), phys, sim.NewStats(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(machine, acc, nil, secureBase, secureSize, nil); !errors.Is(err, ErrNotBooted) {
		t.Fatalf("monitor constructed without secure boot: %v", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, KeySize)
	model := []byte("proprietary weights")
	sealed, err := SealModel(key, model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenModel(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("round trip mismatch")
	}
	// Tampered ciphertext fails closed.
	sealed[len(sealed)-1] ^= 1
	if _, err := OpenModel(key, sealed); err == nil {
		t.Fatal("tampered model decrypted")
	}
	// Wrong key size rejected.
	if _, err := SealModel([]byte("short"), model); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := OpenModel(key, []byte{1, 2}); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func submitSpec(t *testing.T, w *world, prog *npu.Program, topo isolator.Topology) int {
	t.Helper()
	key := bytes.Repeat([]byte{3}, KeySize)
	if err := w.mon.ProvisionKey("owner", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("model-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.mon.Submit(TaskSpec{
		Program:     prog,
		Expected:    prog.Measurement(),
		KeyID:       "owner",
		SealedModel: sealed,
		Topology:    topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSubmitVerifiesMeasurement(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id := submitSpec(t, w, prog, isolator.Topology{W: 1, H: 1})
	if id == 0 {
		t.Fatal("no task id")
	}
	if w.mon.QueueLen() != 1 {
		t.Fatalf("queue len = %d", w.mon.QueueLen())
	}
	// A tampered program (driver swapped an op) is rejected.
	evil := testProgram(t)
	expected := evil.Measurement()
	evil.Ops[0].VA ^= 0x1000
	if _, err := w.mon.Submit(TaskSpec{Program: evil, Expected: expected}); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("tampered program accepted: %v", err)
	}
	if w.stats.Get(sim.CtrMonitorRejected) == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestSubmitRequiresProvisionedKey(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	_, err := w.mon.Submit(TaskSpec{
		Program:     prog,
		Expected:    prog.Measurement(),
		KeyID:       "missing",
		SealedModel: []byte("x"),
	})
	if err == nil {
		t.Fatal("submit with unknown key accepted")
	}
	if err := w.mon.ProvisionKey("bad", []byte("short")); err == nil {
		t.Fatal("short key provisioned")
	}
}

func TestLoadSetsContexts(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id := submitSpec(t, w, prog, isolator.Topology{W: 1, H: 1})
	if err := w.mon.Load(id, []int{0}, 0, 1024); err != nil {
		t.Fatal(err)
	}
	core, _ := w.acc.Core(0)
	if core.Domain() != spad.SecureDomain {
		t.Fatal("core not switched to secure domain")
	}
	// Guarder now translates the task's VA window to its secure chunk.
	task, err := w.mon.Task(id)
	if err != nil {
		t.Fatal(err)
	}
	regs := w.guarders[0].TransRegs()
	if !regs[0].Valid || regs[0].PBase != task.Chunk {
		t.Fatalf("translation register not set: %+v", regs[0])
	}
	if w.mon.QueueLen() != 0 {
		t.Fatal("loaded task still queued")
	}
	// Unload scrubs and resets.
	if err := w.mon.Unload(id); err != nil {
		t.Fatal(err)
	}
	if core.Domain() != spad.NonSecure {
		t.Fatal("core not reset to non-secure")
	}
	if _, err := w.mon.Task(id); !errors.Is(err, ErrUnknownTask) {
		t.Fatal("unloaded task still known")
	}
}

func TestLoadRejectsWrongTopology(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id := submitSpec(t, w, prog, isolator.Topology{W: 2, H: 2})
	// Cores 0..3 on a 5-wide mesh form a 1x4 row: wrong shape.
	err := w.mon.Load(id, []int{0, 1, 2, 3}, 0, 1024)
	if err == nil {
		t.Fatal("1x4 allocation loaded for a 2x2 task")
	}
	var re *isolator.RouteError
	if !errors.As(err, &re) {
		t.Fatalf("error %T, want RouteError", err)
	}
	// Cores 0,1,5,6 form a 2x2 block (mesh width 5).
	if err := w.mon.Load(id, []int{0, 1, 5, 6}, 0, 1024); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsSpadOverlap(t *testing.T) {
	w := bootWorld(t)
	p1 := testProgram(t)
	p2 := testProgram(t)
	id1 := submitSpec(t, w, p1, isolator.Topology{W: 1, H: 1})
	id2 := submitSpec(t, w, p2, isolator.Topology{W: 1, H: 1})
	if err := w.mon.Load(id1, []int{0}, 0, 8192); err != nil {
		t.Fatal(err)
	}
	// Same core, overlapping lines -> rejected.
	if err := w.mon.Load(id2, []int{0}, 4096, 12288); !errors.Is(err, ErrOverlappingSpad) {
		t.Fatalf("overlapping scratchpad load: %v", err)
	}
	// Same core, disjoint lines -> fine.
	if err := w.mon.Load(id2, []int{0}, 8192, 12288); err != nil {
		t.Fatal(err)
	}
	// Bad ranges rejected.
	id3 := submitSpec(t, w, testProgram(t), isolator.Topology{W: 1, H: 1})
	if err := w.mon.Load(id3, []int{1}, 10, 10); err == nil {
		t.Fatal("empty scratchpad range accepted")
	}
}

func TestModelBytesGatedBySecureContext(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	id := submitSpec(t, w, prog, isolator.Topology{W: 1, H: 1})
	if _, err := w.mon.ModelBytes(w.machine.NormalContext(), id); !errors.Is(err, tee.ErrPrivilege) {
		t.Fatalf("normal world read the plaintext model: %v", err)
	}
	model, err := w.mon.ModelBytes(w.machine.SecureContext(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(model, []byte("model-bytes")) {
		t.Fatal("model corrupted")
	}
}

func TestTrampolineDispatch(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	key := bytes.Repeat([]byte{9}, KeySize)
	if err := w.mon.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	rep := w.mon.Dispatch(Call{
		Func:     FnSubmit,
		Shared:   sealed,
		Program:  prog,
		Expected: prog.Measurement(),
		KeyID:    "k",
		Topology: isolator.Topology{W: 1, H: 1},
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	taskID := rep.Value
	if rep := w.mon.Dispatch(Call{Func: FnQueueLen}); rep.Value != 1 {
		t.Fatalf("queue len via trampoline = %d", rep.Value)
	}
	rep = w.mon.Dispatch(Call{Func: FnLoad, Args: []uint64{taskID, 0, 512, 2}})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	rep = w.mon.Dispatch(Call{Func: FnUnload, Args: []uint64{taskID}})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// Malformed calls fail closed.
	if rep := w.mon.Dispatch(Call{Func: FnLoad, Args: []uint64{1}}); rep.Err == nil {
		t.Fatal("short load args accepted")
	}
	if rep := w.mon.Dispatch(Call{Func: FnUnload}); rep.Err == nil {
		t.Fatal("unload without args accepted")
	}
	if rep := w.mon.Dispatch(Call{Func: FuncID(99)}); !errors.Is(rep.Err, ErrBadFunc) {
		t.Fatal("unknown func accepted")
	}
}

func TestFuncIDString(t *testing.T) {
	for f, want := range map[FuncID]string{
		FnSubmit: "submit", FnLoad: "load", FnUnload: "unload",
		FnQueueLen: "queue-len", FuncID(42): "func(42)",
	} {
		if f.String() != want {
			t.Fatalf("%d -> %q", f, f.String())
		}
	}
}

func TestUnloadUnknownAndDoubleFree(t *testing.T) {
	w := bootWorld(t)
	if err := w.mon.Unload(999); !errors.Is(err, ErrUnknownTask) {
		t.Fatal("unknown unload accepted")
	}
	id := submitSpec(t, w, testProgram(t), isolator.Topology{W: 1, H: 1})
	if err := w.mon.Unload(id); err != nil {
		t.Fatal(err)
	}
	if err := w.mon.Unload(id); !errors.Is(err, ErrUnknownTask) {
		t.Fatal("double unload accepted")
	}
}

func TestMeasureMatchesSHA256(t *testing.T) {
	blob := []byte("code")
	if Measure(blob) != sha256.Sum256(blob) {
		t.Fatal("Measure is not sha256")
	}
}

func TestTrampolineSubmitImage(t *testing.T) {
	w := bootWorld(t)
	prog := testProgram(t)
	key := bytes.Repeat([]byte{4}, KeySize)
	if err := w.mon.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealModel(key, []byte("model"))
	if err != nil {
		t.Fatal(err)
	}
	img := &taskimage.Image{
		Name:        "imgtask",
		Program:     prog,
		Expected:    prog.Measurement(),
		KeyID:       "k",
		SealedModel: sealed,
		Topology:    isolator.Topology{W: 1, H: 1},
	}
	buf, err := taskimage.Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	rep := w.mon.Dispatch(Call{Func: FnSubmitImage, Shared: buf})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep := w.mon.Dispatch(Call{Func: FnLoad, Args: []uint64{rep.Value, 0, 256, 0}}); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// A tampered image (flip an op byte) must fail the measurement
	// check even though the framing still parses.
	img2 := &taskimage.Image{
		Name:     "evil",
		Program:  testProgram(t),
		Expected: prog.Measurement(), // claims the honest measurement
		Topology: isolator.Topology{W: 1, H: 1},
	}
	img2.Program.Ops[0].VA ^= 0x40
	buf2, err := taskimage.Encode(img2)
	if err != nil {
		t.Fatal(err)
	}
	if rep := w.mon.Dispatch(Call{Func: FnSubmitImage, Shared: buf2}); !errors.Is(rep.Err, ErrBadMeasurement) {
		t.Fatalf("tampered image accepted: %v", rep.Err)
	}
	// Garbage bytes are rejected at the decoder.
	if rep := w.mon.Dispatch(Call{Func: FnSubmitImage, Shared: []byte("garbage")}); rep.Err == nil {
		t.Fatal("garbage image accepted")
	}
}

func TestSetupPlatformAndMapNonSecure(t *testing.T) {
	w := bootWorld(t)
	if err := w.machine.Phys().AddRegion(mem.Region{
		Name: "npu-reserved", Base: 0x8800_0000, Size: 64 << 20, Owner: mem.Normal, CrossPerm: mem.PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.machine.Phys().AddRegion(mem.Region{
		Name: "secure-dram", Base: secureBase, Size: secureSize, Owner: mem.Secure,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.mon.SetupPlatform(0x8800_0000, 64<<20, secureBase, secureSize); err != nil {
		t.Fatal(err)
	}
	// The platform policy landed in every core's checking registers.
	for i := range w.acc.Cores() {
		regs := w.guarders[i].CheckRegs()
		if !regs[0].Valid || regs[0].World != mem.Normal {
			t.Fatalf("core %d: platform checking register missing", i)
		}
	}
	// Driver-requested non-secure window into reserved memory: allowed.
	if err := w.mon.MapNonSecure(0, 2, 0x2000, 0x8800_1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	// Into secure memory: refused.
	if err := w.mon.MapNonSecure(0, 3, 0x3000, secureBase, 0x1000); err == nil {
		t.Fatal("non-secure window into secure memory accepted")
	}
	// Unknown core: refused.
	if err := w.mon.MapNonSecure(99, 2, 0x2000, 0x8800_1000, 0x1000); err == nil {
		t.Fatal("unknown core accepted")
	}
}

func TestNextQueued(t *testing.T) {
	w := bootWorld(t)
	if _, err := w.mon.NextQueued(); !errors.Is(err, ErrQueueEmpty) {
		t.Fatal("empty queue returned a task")
	}
	id1 := submitSpec(t, w, testProgram(t), isolator.Topology{W: 1, H: 1})
	id2 := submitSpec(t, w, testProgram(t), isolator.Topology{W: 1, H: 1})
	next, err := w.mon.NextQueued()
	if err != nil {
		t.Fatal(err)
	}
	if next != id1 {
		t.Fatalf("next = %d, want oldest %d", next, id1)
	}
	if err := w.mon.Load(id1, []int{0}, 0, 64); err != nil {
		t.Fatal(err)
	}
	next, err = w.mon.NextQueued()
	if err != nil {
		t.Fatal(err)
	}
	if next != id2 {
		t.Fatalf("next after load = %d, want %d", next, id2)
	}
}
