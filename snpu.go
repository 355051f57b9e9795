// Package snpu is the public API of the sNPU reproduction (ISCA 2024:
// "sNPU: Trusted Execution Environments on Integrated NPUs"). It
// assembles the full simulated SoC — a multi-core systolic-array NPU
// with scratchpads and a NoC, TrustZone-style two-world memory, the
// three sNPU security mechanisms of §IV (NPU Guarder, NPU Isolator,
// NPU Monitor), the untrusted driver stack, and the six §VI evaluation
// workloads — behind one constructor.
//
//	sys, err := snpu.New(snpu.DefaultConfig())
//	res, err := sys.RunModel("resnet")
//	fmt.Printf("%d cycles, %.0f%% utilization\n", res.Cycles, res.Utilization*100)
//
// Secure inference goes through the NPU Monitor's trampoline:
//
//	key := make([]byte, snpu.SealKeySize) // owner's model key
//	sealed, _ := snpu.SealModel(key, modelBytes)
//	task, _ := sys.SubmitSecure("bert", "owner-key", sealed)
//	res, _ := sys.RunSecure(task)
package snpu

import (
	"fmt"
	"io"

	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// Config selects the SoC parameters. The zero value is not valid; use
// DefaultConfig (Table II of the paper) and adjust.
type Config struct {
	// NPU is the accelerator configuration (systolic dimension,
	// scratchpad size, tile count, mesh, DRAM).
	NPU npu.Config
	// Protected selects the sNPU security mechanisms; false builds the
	// unprotected baseline ("Normal NPU").
	Protected bool
}

// DefaultConfig mirrors the paper's evaluation SoC with all sNPU
// protections enabled. IDBits is widened beyond the two-world minimum
// so the monitor can tag resident KV-cache windows with per-task
// domains (monitor/kv.go); the tag width is timing-neutral.
func DefaultConfig() Config {
	cfg := npu.DefaultConfig()
	cfg.IDBits = 4
	return Config{NPU: cfg, Protected: true}
}

// BaselineConfig builds the unprotected comparison system.
func BaselineConfig() Config {
	cfg := npu.DefaultConfig()
	cfg.Isolated = false
	cfg.Peephole = false
	return Config{NPU: cfg, Protected: false}
}

// SealKeySize is the model-sealing key size (AES-256).
const SealKeySize = monitor.KeySize

// SealModel encrypts a model under the owner's key for submission
// through the untrusted driver (the user-side helper).
func SealModel(key, model []byte) ([]byte, error) {
	return monitor.SealModel(key, model)
}

// System is one booted SoC instance. It is not safe for concurrent
// use: the simulation clock is shared state.
type System struct {
	cfg      Config
	phys     *mem.Physical
	machine  *tee.Machine
	stats    *sim.Stats
	acc      *npu.NPU
	guarders map[int]*guarder.Guarder
	drv      *driver.Driver
	mon      *monitor.Monitor
	// next translation-register slot per core for non-secure windows
	nextSlot map[int]int
	// inj is the armed fault injector (nil without a plan).
	inj *fault.Injector
	// obs is the attached observability layer (nil = off, the default).
	obs *obs.Observer
}

// New boots a system: memory regions, secure-boot chain, NPU cores
// (with per-core Guarders when protected), driver, and monitor.
func New(cfg Config) (*System, error) {
	phys := mem.NewPhysical()
	for _, r := range []mem.Region{
		{Name: "normal", Base: experiments.NormalBase, Size: experiments.NormalSize, Owner: mem.Normal, CrossPerm: mem.PermRW},
		{Name: "npu-reserved", Base: experiments.ReservedBase, Size: experiments.ReservedSize, Owner: mem.Normal, CrossPerm: mem.PermRW},
		{Name: "secure", Base: experiments.SecureBase, Size: experiments.SecureSize, Owner: mem.Secure},
	} {
		if err := phys.AddRegion(r); err != nil {
			return nil, err
		}
	}
	machine := tee.NewMachine(phys)
	blobs := [][]byte{[]byte("trusted-loader"), []byte("trusted-firmware"), []byte("teeos"), []byte("npu-monitor")}
	for i, name := range []string{"trusted-loader", "trusted-firmware", "teeos", "npu-monitor"} {
		machine.BootChain().AddStage(name, tee.MeasureBytes(blobs[i]))
	}
	if err := machine.Boot(blobs); err != nil {
		return nil, err
	}

	stats := sim.NewStats()
	guarders := make(map[int]*guarder.Guarder)
	makeXlate := func(core int) xlate.Translator {
		if !cfg.Protected {
			return xlate.NewIdentity(stats)
		}
		g := guarder.NewDefault(stats)
		guarders[core] = g
		return g
	}
	acc, err := npu.New(cfg.NPU, phys, stats, makeXlate)
	if err != nil {
		return nil, err
	}
	experiments.RecordSoCStats(stats)
	sys := &System{
		cfg:      cfg,
		phys:     phys,
		machine:  machine,
		stats:    stats,
		acc:      acc,
		guarders: guarders,
		drv:      driver.New(cfg.NPU, experiments.ReservedBase, experiments.ReservedSize, stats),
		nextSlot: make(map[int]int),
	}
	if cfg.Protected {
		mon, err := monitor.New(machine, acc, guarders, experiments.SecureBase, experiments.SecureSize, stats)
		if err != nil {
			return nil, err
		}
		if err := mon.SetupPlatform(experiments.ReservedBase, experiments.ReservedSize,
			experiments.SecureBase, experiments.SecureSize); err != nil {
			return nil, err
		}
		sys.mon = mon
	}
	return sys, nil
}

// Stats exposes the system-wide counters.
func (s *System) Stats() *sim.Stats { return s.stats }

// Reset power-cycles the system back to its just-booted state so it
// can be reused by another benchmark cell (arena-style pooling; see
// DESIGN.md §13). Everything observable is scrubbed — the accelerator
// (pipelines, DRAM channel, L2 contents, scratchpad payload/tags/
// valid/parity, mesh state, core domains, boot translators restored),
// backing DRAM pages and ECC damage, every Guarder register file, the
// driver's allocator and task IDs, the monitor's keys/tasks/queue/
// allocator (with the platform's static checking windows reprogrammed
// exactly as New does), fault injectors, observability attachments,
// and all counters. Capacity (slices and maps) stays warm; that reuse
// is the entire point.
//
// The contract, pinned by the fresh-vs-pooled differential tests: any
// run on a Reset system is byte-identical — cycles, decision logs,
// stats — to the same run on a fresh New(cfg) system, and no prior
// tenant's bytes are observable afterwards.
func (s *System) Reset() error {
	s.acc.Reset()
	s.phys.Reset()
	s.stats.Reset()
	for _, g := range s.guarders {
		g.Reset()
	}
	s.drv.Reset()
	clear(s.nextSlot)
	s.inj = nil
	s.obs = nil
	if s.mon != nil {
		s.mon.Reset()
		if err := s.mon.SetupPlatform(experiments.ReservedBase, experiments.ReservedSize,
			experiments.SecureBase, experiments.SecureSize); err != nil {
			return err
		}
	}
	return nil
}

// EnableObservability arms the unified observability layer across the
// whole SoC: the metrics registry exports the system counters plus
// per-component histograms (NoC stalls, DMA latency, IOTLB walks,
// scheduler latency), executors record spans on the observer's
// timeline, and profiling hooks sample link occupancy and channel
// backlog on a fixed cycle cadence. Metrics dumps list every typed
// counter, zeros included.
//
// Observability is passive — enabling it does not change a single
// simulated cycle — and stays attached for the system's lifetime.
func (s *System) EnableObservability(cfg obs.Config) *obs.Observer {
	o := obs.NewObserver(cfg, s.stats)
	s.acc.AttachObserver(o)
	s.inj.AttachTrace(o.Trace())
	s.obs = o
	return o
}

// Observer returns the attached observability layer (nil until
// EnableObservability).
func (s *System) Observer() *obs.Observer { return s.obs }

// NPU exposes the accelerator (cores, mesh, channel).
func (s *System) NPU() *npu.NPU { return s.acc }

// Driver exposes the untrusted driver stack.
func (s *System) Driver() *driver.Driver { return s.drv }

// Monitor exposes the NPU Monitor (nil on the unprotected baseline).
func (s *System) Monitor() *monitor.Monitor { return s.mon }

// Machine exposes the trust anchor (for examples that demonstrate the
// privilege gate; real untrusted code never holds the secure context).
func (s *System) Machine() *tee.Machine { return s.machine }

// InferenceResult reports one completed inference.
type InferenceResult struct {
	Model string
	// Cycles is the end-to-end runtime at 1 GHz (cycles == ns).
	Cycles sim.Cycle
	// Utilization is achieved over peak MACs/cycle on the core used.
	Utilization float64
	// MACs is the arithmetic work performed.
	MACs int64
}

// Workloads lists the six built-in evaluation models.
func Workloads() []string {
	names := make([]string, 0, 6)
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return names
}

// ExtraWorkloads lists the additional models beyond the paper's
// evaluation set (vgg16, gpt-decode, dlrm).
func ExtraWorkloads() []string {
	var names []string
	for _, w := range workload.Extras() {
		names = append(names, w.Name)
	}
	return names
}

// RunModel runs one non-secure inference of a built-in model on core
// 0: the driver compiles and allocates it, asks the monitor (via the
// trampoline) to program the core's translation window, and executes.
func (s *System) RunModel(name string) (InferenceResult, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return InferenceResult{}, err
	}
	return s.RunWorkload(w)
}

// RunWorkload is RunModel for a caller-provided workload description.
// Each measured run starts on an idle SoC: the simulated DRAM channel
// is reset so back-to-back calls do not queue behind each other's
// history (use TimeShare or the NPU's lower-level API for genuinely
// concurrent execution).
func (s *System) RunWorkload(w workload.Workload) (InferenceResult, error) {
	return s.runWorkload(w, nil)
}

// runWorkload is the one non-secure run body behind RunWorkload and
// RunWorkloadTraced; a non-nil rec replaces the executor's timeline.
func (s *System) runWorkload(w workload.Workload, rec *trace.Recorder) (InferenceResult, error) {
	s.acc.ResetTiming()
	task, err := s.drv.Submit(w, 0, false)
	if err != nil {
		return InferenceResult{}, err
	}
	defer func() { _ = s.drv.Release(task) }()
	core, err := s.acc.Core(0)
	if err != nil {
		return InferenceResult{}, err
	}
	if err := s.mapNonSecure(0, task); err != nil {
		return InferenceResult{}, err
	}
	cycles, err := s.drv.RunSolo(core, task, rec)
	if err != nil {
		return InferenceResult{}, err
	}
	return s.inferenceResult(w.Name, task.Program, cycles), nil
}

// inferenceResult reports a completed run of prog.
func (s *System) inferenceResult(model string, prog *npu.Program, cycles sim.Cycle) InferenceResult {
	return InferenceResult{
		Model:       model,
		Cycles:      cycles,
		Utilization: npu.Utilization(prog, cycles, s.cfg.NPU.SystolicDim),
		MACs:        prog.TotalMACs,
	}
}

// mapNonSecure installs a task's translation window through the
// monitor trampoline (protected systems) or not at all (baseline:
// identity translation needs no window — but then the task's VAs must
// equal PAs, so the baseline rewrites nothing and simply runs).
func (s *System) mapNonSecure(core int, task *driver.Task) error {
	if s.mon == nil {
		return nil
	}
	lo, hi := task.Program.VASpan()
	vbase := mem.VirtAddr(mem.PageAlignDown(mem.PhysAddr(lo)))
	size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PhysAddr(vbase))
	slot := s.nextSlot[core]%(guarder.DefaultTransRegs-1) + 1 // slot 0 is reserved for secure tasks
	s.nextSlot[core]++
	rep := s.mon.Dispatch(monitor.Call{
		Func: monitor.FnMapNonSecure,
		Args: []uint64{uint64(core), uint64(slot), uint64(vbase), uint64(task.Chunk), size},
	})
	return rep.Err
}

// RunModelTraced runs a non-secure inference like RunModel and
// additionally writes a Chrome-trace JSON timeline (DMA batches,
// compute tiles, stores) to w — open it in chrome://tracing or
// Perfetto.
func (s *System) RunModelTraced(name string, w io.Writer) (InferenceResult, error) {
	wl, err := workload.Lookup(name)
	if err != nil {
		return InferenceResult{}, err
	}
	return s.RunWorkloadTraced(wl, w)
}

// RunWorkloadTraced is RunModelTraced for a caller-provided workload
// (e.g. one lowered from a graph-IR file).
func (s *System) RunWorkloadTraced(wl workload.Workload, w io.Writer) (InferenceResult, error) {
	// With span-recording observability enabled, reuse its recorder so
	// component spans (noc.send, dma.mvin, iotlb.walk, ...) land on the
	// same Chrome timeline as the op events.
	rec := s.obs.Trace()
	if rec == nil {
		rec = trace.New(1 << 20)
	}
	res, err := s.runWorkload(wl, rec)
	if err != nil {
		return InferenceResult{}, err
	}
	if err := rec.ExportChrome(w); err != nil {
		return InferenceResult{}, err
	}
	return res, nil
}

// SecureTaskHandle identifies a verified secure task. It keeps the
// submission inputs so the recovery path can resubmit the task after a
// fail-closed abort.
type SecureTaskHandle struct {
	ID    int
	Cores []int
	prog  *workloadProg
	keyID string
	// sealed is the still-encrypted model blob — resubmission after an
	// abort re-verifies and re-decrypts it; no plaintext outlives the
	// abort outside the monitor.
	sealed []byte
}

type workloadProg struct {
	w    workload.Workload
	prog *npu.Program
}

// ProvisionKey installs a model owner's sealing key into the monitor
// (standing in for the attested key-exchange channel).
func (s *System) ProvisionKey(keyID string, key []byte) error {
	if s.mon == nil {
		return fmt.Errorf("snpu: baseline system has no monitor")
	}
	return s.mon.ProvisionKey(keyID, key)
}

// MapWindow asks the monitor to program a Guarder translation window
// on one core: VA [va, va+size) onto NPU-reserved memory at the given
// offset. Slots 1..15 are available (slot 0 is reserved for secure
// task loads). The monitor refuses windows into secure-owned memory.
// On the unprotected baseline there is nothing to program.
func (s *System) MapWindow(coreID, slot int, va uint64, reservedOff, size uint64) error {
	if s.mon == nil {
		return nil
	}
	if reservedOff+size > experiments.ReservedSize {
		return fmt.Errorf("snpu: window [%#x,+%#x) exceeds reserved memory", reservedOff, size)
	}
	return s.mon.MapNonSecure(coreID, slot, mem.VirtAddr(va),
		experiments.ReservedBase+mem.PhysAddr(reservedOff), size)
}

// AttestationReport re-exports the TEE quote type.
type AttestationReport = tee.Report

// Attest produces a Root-of-Trust quote binding the secure-boot chain
// to a task's code measurement, for the model owner's verifier. The
// monitor requests the quote on behalf of a submitted secure task.
func (s *System) Attest(h *SecureTaskHandle, nonce uint64) (AttestationReport, error) {
	if s.mon == nil {
		return AttestationReport{}, fmt.Errorf("snpu: baseline system has no monitor")
	}
	if h == nil || h.prog == nil {
		return AttestationReport{}, fmt.Errorf("snpu: nil task handle")
	}
	return s.machine.Attest(s.machine.SecureContext(), tee.Measurement(h.prog.prog.Measurement()), nonce)
}

// VerifyAttestation is the model owner's check: the report must carry
// the expected boot chain, the expected program measurement, and the
// fresh nonce. Owners call this before provisioning their sealing key.
func (s *System) VerifyAttestation(r AttestationReport, expectedTask [32]byte, nonce uint64) error {
	return s.machine.VerifyReport(r, s.machine.BootChain().Attestation(), tee.Measurement(expectedTask), nonce)
}

// SubmitSecure compiles a built-in model as a secure task and submits
// it through the monitor: the code verifier checks the measurement,
// the sealed model decrypts inside the secure world, and the task
// queues for loading.
func (s *System) SubmitSecure(name, keyID string, sealedModel []byte) (*SecureTaskHandle, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	return s.SubmitSecureWorkload(w, keyID, sealedModel)
}

// SubmitSecureWorkload is SubmitSecure for a caller-provided workload —
// typically one lowered from a graph-IR document (internal/graph). The
// compiled program's measurement covers the workload's canonical
// digest, so the attestation quote binds the exact submitted graph,
// not just its display name.
func (s *System) SubmitSecureWorkload(w workload.Workload, keyID string, sealedModel []byte) (*SecureTaskHandle, error) {
	if s.mon == nil {
		return nil, fmt.Errorf("snpu: baseline system has no monitor")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	prog, _, err := npu.CompileCached(w, s.cfg.NPU, 0, npu.DefaultLayout)
	if err != nil {
		return nil, err
	}
	id, err := s.submitSecure(prog, keyID, sealedModel)
	if err != nil {
		return nil, err
	}
	return &SecureTaskHandle{
		ID:     id,
		prog:   &workloadProg{w: w, prog: prog},
		keyID:  keyID,
		sealed: append([]byte(nil), sealedModel...),
	}, nil
}

// submitSecure sends a compiled program and its sealed model through
// the monitor's verification path (measurement check, unsealing,
// allocation) and returns the queued task's ID.
func (s *System) submitSecure(prog *npu.Program, keyID string, sealedModel []byte) (int, error) {
	rep := s.mon.Dispatch(monitor.Call{
		Func:     monitor.FnSubmit,
		Shared:   sealedModel,
		Program:  prog,
		Expected: prog.Measurement(),
		KeyID:    keyID,
	})
	return int(rep.Value), rep.Err
}

// RunSecure loads the task onto core 0 (flipping it into the secure
// domain, programming its Guarder) and executes it, then unloads —
// scrubbing secure scratchpad lines and returning the core to the
// normal world. It is RunSecureResilient with no restart budget: a
// fault aborts the task fail-closed and surfaces only as
// ErrTaskAborted.
func (s *System) RunSecure(h *SecureTaskHandle) (InferenceResult, error) {
	rep, err := s.runSecure(h, 0)
	return rep.InferenceResult, err
}

// TransferMode re-exports the multi-core activation transfer modes.
type TransferMode = npu.TransferMode

// Transfer modes for RunModelParallel.
const (
	TransferNoC          = npu.TransferNoC
	TransferSharedMemory = npu.TransferSharedMemory
)

// ModelParallelResult re-exports the multi-core run report.
type ModelParallelResult = npu.ModelParallelResult

// shmWindowVA is the shared-memory bounce buffer used by software-NoC
// transfers, identity-translated into the normal region.
const shmWindowVA = mem.VirtAddr(0x8100_0000)

// RunModelParallel runs one inference of a built-in model split across
// the given cores (a contiguous mesh block), exchanging activations
// per mode. On protected systems the monitor programs each core's
// Guarder with the slice's window plus the shared-memory window.
func (s *System) RunModelParallel(name string, cores []int, mode TransferMode) (ModelParallelResult, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return ModelParallelResult{}, err
	}
	s.acc.ResetTiming()
	var mapWindow npu.MapWindow
	if s.mon != nil {
		mapWindow = func(coreID int, prog *npu.Program) error {
			lo, hi := prog.VASpan()
			vbase := mem.VirtAddr(mem.PageAlignDown(mem.PhysAddr(lo)))
			size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PhysAddr(vbase))
			// Slice window onto a per-core cut of reserved memory.
			pa := experiments.ReservedBase + mem.PhysAddr(uint64(coreID)*(experiments.ReservedSize/16))
			if err := s.mon.MapNonSecure(coreID, 1, vbase, pa, size); err != nil {
				return err
			}
			// Shared-memory bounce buffer (software NoC), carved from
			// the tail of NPU-reserved memory so the platform checking
			// registers cover it.
			shmPA := experiments.ReservedBase + mem.PhysAddr(experiments.ReservedSize-(32<<20))
			return s.mon.MapNonSecure(coreID, 2, shmWindowVA, shmPA, 16<<20)
		}
	}
	return s.acc.RunModelParallel(w, cores, mode, shmWindowVA, mapWindow)
}

// TimeShareResult re-exports the driver's time-sharing report.
type TimeShareResult = driver.TimeShareResult

// FlushGranularity re-exports the scratchpad flush granularities.
type FlushGranularity = spad.FlushGranularity

// Flush granularities for TimeShare.
const (
	FlushNone       = spad.FlushNone
	FlushPerTile    = spad.FlushPerTile
	FlushPerLayer   = spad.FlushPerLayer
	FlushPer5Layers = spad.FlushPer5Layers
)

// NewScheduler builds a multi-tenant secure task scheduler over this
// system's NPU, monitor, and driver (§IV-B context switching under a
// serving workload). The scheduler owns the listed cores for one
// deterministic Run episode; see internal/sched for the model. An
// attached observability layer (EnableObservability) is wired in
// automatically.
func (s *System) NewScheduler(cfg sched.Config) (*sched.Scheduler, error) {
	sc, err := sched.New(sched.Deps{
		NPU:     s.acc,
		Monitor: s.mon,
		Driver:  s.drv,
		Cfg:     s.cfg.NPU,
		Stats:   s.stats,
	}, cfg)
	if err != nil {
		return nil, err
	}
	if s.obs != nil {
		sc.AttachObserver(s.obs)
	}
	return sc, nil
}

// TimeShare runs two built-in models time-shared on core 0 at the
// given granularity. With flush=false it is sNPU's ID-isolated
// sharing; with flush=true it is the TrustZone-NPU strawman paying
// save/restore on every switch.
func (s *System) TimeShare(nameA, nameB string, gran FlushGranularity, flush bool) (TimeShareResult, error) {
	wa, err := workload.Lookup(nameA)
	if err != nil {
		return TimeShareResult{}, err
	}
	wb, err := workload.Lookup(nameB)
	if err != nil {
		return TimeShareResult{}, err
	}
	ta, err := s.drv.Submit(wa, 0, true)
	if err != nil {
		return TimeShareResult{}, err
	}
	defer func() { _ = s.drv.Release(ta) }()
	tb, err := s.drv.Submit(wb, 0, false)
	if err != nil {
		return TimeShareResult{}, err
	}
	defer func() { _ = s.drv.Release(tb) }()
	s.acc.ResetTiming()
	core, err := s.acc.Core(0)
	if err != nil {
		return TimeShareResult{}, err
	}
	for _, task := range []*driver.Task{ta, tb} {
		if err := s.mapNonSecure(0, task); err != nil {
			return TimeShareResult{}, err
		}
	}
	return s.drv.RunTimeShared(core, []*driver.Task{ta, tb}, gran, flush)
}
