package monitor

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/guarder"
	"repro/internal/isolator"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
)

// Errors the monitor returns to the untrusted side. They carry no
// secret-dependent detail beyond the failing check.
var (
	ErrNotBooted       = errors.New("monitor: machine has not completed secure boot")
	ErrBadMeasurement  = errors.New("monitor: code measurement mismatch")
	ErrUnknownTask     = errors.New("monitor: unknown secure task")
	ErrQueueEmpty      = errors.New("monitor: secure task queue empty")
	ErrBadFunc         = errors.New("monitor: unknown trampoline function")
	ErrChunkNotSecure  = errors.New("monitor: task chunk outside secure memory")
	ErrOverlappingSpad = errors.New("monitor: scratchpad ranges overlap")
)

// SecureTask is one verified task waiting in (or loaded from) the
// secure task queue.
type SecureTask struct {
	ID      int
	Program *npu.Program
	// Model is the decrypted model blob, held only in secure memory.
	model []byte
	// Chunk is the task's buffer in secure memory.
	Chunk     mem.PhysAddr
	ChunkSize uint64
	// Topology is the expected NoC arrangement for multi-core tasks.
	Topology isolator.Topology
	// Cores are the verified cores the task was loaded onto.
	Cores []int
	// SpadLines is the scratchpad range reserved per core.
	SpadLines [2]int
	Loaded    bool
}

// Transition bits for the monitor's state-transition coverage bitmap
// (TransitionBitmap). Bits 0..15 are set by the trampoline dispatcher:
// bit 2*(f-1) when FuncID f returned ok, bit 2*(f-1)+1 when it
// returned an error. Bits 16+ mark semantic transitions inside the
// monitor's task state machine; together they make the monitor's
// explored state space observable to the coverage-guided campaign
// harness (internal/campaign) without changing a single simulated
// cycle — the bitmap is passive, like the obs counters next to it.
const (
	TrSubmitVerified  = 16 // task verified and enqueued
	TrSubmitBadMeas   = 17 // submit refused: measurement mismatch
	TrSubmitNoSpace   = 18 // submit refused: secure allocator full
	TrLoadOK          = 19 // verified task loaded onto cores
	TrLoadBadRoute    = 20 // load refused: route-integrity check
	TrPreemptLoaded   = 21 // loaded task preempted (flush paid)
	TrPreemptRefused  = 22 // preempt refused: unknown/not loaded
	TrAbortLoaded     = 23 // fail-closed abort of a loaded task
	TrAbortQueued     = 24 // fail-closed abort of a queued task
	TrUnloadLoaded    = 25 // orderly unload of a loaded task
	TrUnloadQueued    = 26 // orderly unload of a queued task
	TrMapOK           = 27 // non-secure window programmed
	TrMapSecureTarget = 28 // map refused: window into secure memory
	TrKeyProvisioned  = 29 // sealing key installed
	TrUnsealFailed    = 30 // submit refused: sealed model failed to open
)

// Monitor is the trusted software module. Construction requires the
// secure context, so only boot-path code can create one.
type Monitor struct {
	ctx      tee.Context
	machine  *tee.Machine
	acc      *npu.NPU
	guarders map[int]*guarder.Guarder
	// trusted allocator over the secure memory region
	alloc *mem.ContigAlloc
	// provisioned sealing keys by key ID (attested-channel stand-in)
	keys map[string][]byte
	// secure task queue
	queue  []*SecureTask
	tasks  map[int]*SecureTask
	nextID int
	stats  *sim.Stats

	// kv tracks resident KV-cache windows (kv.go), creation order.
	kv []*KVRegion

	// transitions accumulates the state-transition coverage bitmap
	// (see the Tr* bit constants); read through TransitionBitmap.
	transitions uint64

	// Observability: pre-resolved counters, nil unless AttachObserver
	// was called.
	obsCalls, obsAborts, obsRejects, obsPreempts *obs.Counter
}

// note sets one transition-coverage bit. Bits only accumulate; the
// bitmap over a monitor's lifetime records which corners of the task
// state machine were ever exercised.
func (m *Monitor) note(bit uint) {
	if bit < 64 {
		m.transitions |= 1 << bit
	}
}

// TransitionBitmap reports the accumulated state-transition coverage
// since boot: one bit per (trampoline function, outcome) pair plus the
// semantic Tr* transitions. The campaign fuzzer folds it into its
// coverage signal so exploring a new monitor transition is rewarded
// like exploring a new branch.
func (m *Monitor) TransitionBitmap() uint64 { return m.transitions }

// AttachObserver wires the monitor into an observability layer:
// monitor.call.count per trampoline entry, monitor.abort.count per
// fail-closed teardown, monitor.reject.count per refused request. Nil
// detaches.
func (m *Monitor) AttachObserver(o *obs.Observer) {
	if o == nil {
		m.obsCalls, m.obsAborts, m.obsRejects, m.obsPreempts = nil, nil, nil, nil
		return
	}
	scope := o.Registry().Scope("monitor")
	m.obsCalls = scope.Counter("call.count")
	m.obsAborts = scope.Counter("abort.count")
	m.obsRejects = scope.Counter("reject.count")
	m.obsPreempts = scope.Counter("preempt.count")
}

// call counts one trampoline entry into the monitor.
func (m *Monitor) call() {
	m.stats.IncID(sim.IDMonitorCalls)
	m.obsCalls.Inc()
}

// New builds the monitor. It refuses to run on a machine that has not
// completed secure boot (the boot chain loads and verifies the monitor
// itself before anything untrusted runs).
func New(machine *tee.Machine, acc *npu.NPU, guarders map[int]*guarder.Guarder, secureBase mem.PhysAddr, secureSize uint64, stats *sim.Stats) (*Monitor, error) {
	if !machine.Secured() {
		return nil, ErrNotBooted
	}
	return &Monitor{
		ctx:      machine.SecureContext(),
		machine:  machine,
		acc:      acc,
		guarders: guarders,
		alloc:    mem.NewContigAlloc(secureBase, secureSize),
		keys:     make(map[string][]byte),
		tasks:    make(map[int]*SecureTask),
		nextID:   1,
		stats:    stats,
	}, nil
}

// Reset returns the monitor to its just-booted state for pooled
// System reuse: provisioned keys are destroyed, queued and tracked
// secure tasks are dropped, the trusted allocator releases every slot,
// task IDs restart at 1, and the transition-coverage bitmap clears.
// The caller must re-run SetupPlatform afterwards (System.Reset does)
// so the guarders' static checking windows are reprogrammed exactly as
// at boot. Observability attachments are construction-scoped and left
// to the owner.
func (m *Monitor) Reset() {
	clear(m.keys)
	m.queue = nil
	clear(m.tasks)
	m.kv = nil
	m.nextID = 1
	m.transitions = 0
	m.alloc.Reset()
	m.obsCalls, m.obsAborts, m.obsRejects, m.obsPreempts = nil, nil, nil, nil
}

// ProvisionKey installs a model-sealing key. In a deployment this
// arrives over an attested channel rooted in the secure-boot report;
// here the model owner calls it directly against the monitor.
func (m *Monitor) ProvisionKey(keyID string, key []byte) error {
	if len(key) != KeySize {
		return fmt.Errorf("monitor: key %q must be %d bytes", keyID, KeySize)
	}
	k := make([]byte, KeySize)
	copy(k, key)
	m.keys[keyID] = k
	m.note(TrKeyProvisioned)
	return nil
}

// TaskSpec is what the untrusted driver submits through the
// trampoline: the compiled program, the owner's expected measurement,
// the sealed model, and the expected NoC topology.
type TaskSpec struct {
	Program     *npu.Program
	Expected    [sha256.Size]byte
	KeyID       string
	SealedModel []byte
	Topology    isolator.Topology
	// SpadLinesNeeded reserves scratchpad lines per core for the task
	// (the trusted allocator checks for overlap between secure tasks).
	SpadLinesNeeded int
}

// Submit is the code-verifier + trusted-allocator path: decrypt the
// model, measure the program against the owner's expectation, allocate
// the task's secure-memory chunk, and enqueue it.
func (m *Monitor) Submit(spec TaskSpec) (int, error) {
	m.call()
	if spec.Program == nil {
		return 0, m.reject(fmt.Errorf("monitor: nil program"))
	}
	// Code verifier: statically validate the op stream's structure,
	// then measure it against the owner's expectation.
	if err := spec.Program.Validate(); err != nil {
		return 0, m.reject(fmt.Errorf("monitor: program rejected: %w", err))
	}
	if got := spec.Program.Measurement(); got != spec.Expected {
		m.note(TrSubmitBadMeas)
		return 0, m.reject(ErrBadMeasurement)
	}
	var model []byte
	if len(spec.SealedModel) > 0 {
		key, ok := m.keys[spec.KeyID]
		if !ok {
			m.note(TrUnsealFailed)
			return 0, m.reject(fmt.Errorf("monitor: no key %q provisioned", spec.KeyID))
		}
		var err error
		model, err = OpenModel(key, spec.SealedModel)
		if err != nil {
			m.note(TrUnsealFailed)
			return 0, m.reject(err)
		}
	}
	// Trusted allocator: the task's working buffers live in secure
	// memory, never in the driver-controlled reserved heap.
	lo, hi := spec.Program.VASpan()
	size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PageAlignDown(mem.PhysAddr(lo)))
	chunk, err := m.alloc.Alloc(size, mem.PageSize)
	if err != nil {
		m.note(TrSubmitNoSpace)
		return 0, m.reject(err)
	}
	task := &SecureTask{
		ID:        m.nextID,
		Program:   spec.Program,
		model:     model,
		Chunk:     chunk,
		ChunkSize: size,
		Topology:  spec.Topology,
	}
	m.nextID++
	m.queue = append(m.queue, task)
	m.tasks[task.ID] = task
	m.note(TrSubmitVerified)
	return task.ID, nil
}

// Load is the secure-loader + context-setter path: verify the route
// integrity of the scheduled cores, check scratchpad reservations for
// overlap, flip the cores' ID states, and program each core's Guarder
// with the task's translation window and checking authority.
func (m *Monitor) Load(taskID int, cores []int, spadFrom, spadTo int) error {
	m.call()
	task, ok := m.tasks[taskID]
	if !ok {
		return m.reject(ErrUnknownTask)
	}
	// Secure loader: route integrity.
	coords := make([]noc.Coord, 0, len(cores))
	for _, ci := range cores {
		core, err := m.acc.Core(ci)
		if err != nil {
			return m.reject(err)
		}
		coords = append(coords, core.Coord())
	}
	topo := task.Topology
	if topo.Cores() == 0 {
		topo = isolator.Topology{W: 1, H: 1}
	}
	if err := isolator.VerifyRoute(topo, coords); err != nil {
		m.note(TrLoadBadRoute)
		return m.reject(err)
	}
	// Trusted allocator: no scratchpad overlap among loaded secure
	// tasks sharing a core.
	if spadTo <= spadFrom || spadFrom < 0 {
		return m.reject(fmt.Errorf("monitor: bad scratchpad range [%d,%d)", spadFrom, spadTo))
	}
	for _, other := range m.tasks {
		if !other.Loaded || other.ID == taskID {
			continue
		}
		if sharesCore(other.Cores, cores) && spadFrom < other.SpadLines[1] && other.SpadLines[0] < spadTo {
			return m.reject(ErrOverlappingSpad)
		}
	}
	// Context setter: core ID states + Guarder registers.
	for _, ci := range cores {
		core, err := m.acc.Core(ci)
		if err != nil {
			return m.reject(err)
		}
		if err := core.SetDomain(m.ctx, spad.SecureDomain); err != nil {
			return m.reject(err)
		}
		if g, ok := m.guarders[ci]; ok {
			lo, hi := task.Program.VASpan()
			vbase := mem.VirtAddr(mem.PageAlignDown(mem.PhysAddr(lo)))
			if err := g.SetTransReg(m.ctx, 0, guarder.TransReg{
				VBase: vbase, PBase: task.Chunk,
				Size: uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PhysAddr(vbase)), Valid: true,
			}); err != nil {
				return m.reject(err)
			}
			if err := g.SetCheckReg(m.ctx, 1, guarder.CheckReg{
				Base: task.Chunk, Size: task.ChunkSize,
				Perm: mem.PermRW, World: mem.Secure, Valid: true,
			}); err != nil {
				return m.reject(err)
			}
		}
	}
	task.Cores = append([]int(nil), cores...)
	task.SpadLines = [2]int{spadFrom, spadTo}
	task.Loaded = true
	m.note(TrLoadOK)
	// Remove from the pending queue.
	for i, q := range m.queue {
		if q.ID == taskID {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	return nil
}

// Unload releases a task: reset the cores to non-secure, scrub the
// secure scratchpad lines, free the chunk.
func (m *Monitor) Unload(taskID int) error {
	m.call()
	task, ok := m.tasks[taskID]
	if !ok {
		return m.reject(ErrUnknownTask)
	}
	// The §IV-B flush contract for resident caches: the owner's unload
	// scrubs and frees its KV windows, wherever they were claimed.
	if err := m.releaseKV(taskID); err != nil {
		return m.reject(err)
	}
	if task.Loaded {
		m.note(TrUnloadLoaded)
		for _, ci := range task.Cores {
			core, err := m.acc.Core(ci)
			if err != nil {
				return m.reject(err)
			}
			sp := core.Scratchpad()
			if err := m.scrubSpadAround(sp, ci, task.SpadLines[0], minInt(task.SpadLines[1], sp.Lines())); err != nil {
				return m.reject(err)
			}
			if err := core.SetDomain(m.ctx, spad.NonSecure); err != nil {
				return m.reject(err)
			}
			if g, ok := m.guarders[ci]; ok {
				if err := g.ClearTask(m.ctx); err != nil {
					return m.reject(err)
				}
			}
		}
	} else {
		m.note(TrUnloadQueued)
	}
	if err := m.alloc.Free(task.Chunk); err != nil {
		return m.reject(err)
	}
	delete(m.tasks, taskID)
	for i, q := range m.queue {
		if q.ID == taskID {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	return nil
}

// Preempt evicts a loaded task from its cores without destroying it:
// the §IV-B flush-on-switch. The task's scratchpad and accumulator
// lines are scrubbed (no cross-domain bytes survive the switch), the
// cores' ID bits are reassigned to the non-secure domain, and every
// translation register is invalidated — exactly the context-switch
// teardown of Unload — but the task's secure chunk and decrypted model
// stay resident, so a later Load resumes it without re-verification.
// The preempted task returns to the tail of the pending queue.
func (m *Monitor) Preempt(taskID int) error {
	m.call()
	task, ok := m.tasks[taskID]
	if !ok {
		m.note(TrPreemptRefused)
		return m.reject(ErrUnknownTask)
	}
	if !task.Loaded {
		m.note(TrPreemptRefused)
		return m.reject(fmt.Errorf("monitor: task %d is not loaded", taskID))
	}
	m.note(TrPreemptLoaded)
	m.obsPreempts.Inc()
	for _, ci := range task.Cores {
		core, err := m.acc.Core(ci)
		if err != nil {
			return m.reject(err)
		}
		sp := core.Scratchpad()
		// Context-switch scrub walks around live KV windows: resident
		// caches (this task's and others') survive the preemption.
		if err := m.scrubSpadAround(sp, ci, task.SpadLines[0], minInt(task.SpadLines[1], sp.Lines())); err != nil {
			return m.reject(err)
		}
		acc := core.Accumulator()
		if err := acc.ResetSecure(m.ctx, 0, acc.Lines()); err != nil {
			return m.reject(err)
		}
		if err := core.SetDomain(m.ctx, spad.NonSecure); err != nil {
			return m.reject(err)
		}
		if g, ok := m.guarders[ci]; ok {
			if err := g.ClearTask(m.ctx); err != nil {
				return m.reject(err)
			}
		}
	}
	task.Loaded = false
	task.Cores = nil
	m.queue = append(m.queue, task)
	return nil
}

// Abort is the fail-closed teardown path the recovery machinery takes
// when a secure task hangs or hits an unrecoverable fault. Everything
// Unload does, plus: the task's scratchpad and accumulator lines are
// scrubbed, the decrypted model is zeroed, and the task's secure chunk
// is wiped before returning to the allocator — no secure state
// survives the abort, so even a fault at the worst possible moment
// leaves nothing for the normal world to find. The untrusted driver
// observes only an opaque "task gone" condition.
func (m *Monitor) Abort(taskID int) error {
	m.call()
	task, ok := m.tasks[taskID]
	if !ok {
		return m.reject(ErrUnknownTask)
	}
	m.stats.IncID(sim.IDMonitorAborts)
	m.obsAborts.Inc()
	if task.Loaded {
		m.note(TrAbortLoaded)
	} else {
		m.note(TrAbortQueued)
	}
	// Fail-closed for resident caches too: scrub + free the task's KV
	// windows before anything else becomes reachable.
	if err := m.releaseKV(taskID); err != nil {
		return m.reject(err)
	}
	if task.Loaded {
		for _, ci := range task.Cores {
			core, err := m.acc.Core(ci)
			if err != nil {
				return m.reject(err)
			}
			sp := core.Scratchpad()
			if err := m.scrubSpadAround(sp, ci, task.SpadLines[0], minInt(task.SpadLines[1], sp.Lines())); err != nil {
				return m.reject(err)
			}
			acc := core.Accumulator()
			if err := acc.ResetSecure(m.ctx, 0, acc.Lines()); err != nil {
				return m.reject(err)
			}
			if err := core.SetDomain(m.ctx, spad.NonSecure); err != nil {
				return m.reject(err)
			}
			if g, ok := m.guarders[ci]; ok {
				if err := g.ClearTask(m.ctx); err != nil {
					return m.reject(err)
				}
			}
		}
	}
	// Measurement-state teardown: zero the plaintext model and the
	// task's working chunk before the chunk becomes allocatable again.
	for i := range task.model {
		task.model[i] = 0
	}
	task.model = nil
	m.machine.Phys().Zero(task.Chunk, task.ChunkSize)
	if err := m.alloc.Free(task.Chunk); err != nil {
		return m.reject(err)
	}
	delete(m.tasks, taskID)
	for i, q := range m.queue {
		if q.ID == taskID {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	return nil
}

// SetupPlatform installs the boot-time platform policy into every
// core's Guarder checking registers: the normal world may read/write
// the NPU-reserved region, the secure world additionally the secure
// region. Checking registers are rarely modified afterwards (§IV-A).
func (m *Monitor) SetupPlatform(reservedBase mem.PhysAddr, reservedSize uint64, secureBase mem.PhysAddr, secureSize uint64) error {
	for _, g := range m.guarders {
		if err := g.SetCheckReg(m.ctx, 0, guarder.CheckReg{
			Base: reservedBase, Size: reservedSize, Perm: mem.PermRW, World: mem.Normal, Valid: true,
		}); err != nil {
			return err
		}
		if err := g.SetCheckReg(m.ctx, 2, guarder.CheckReg{
			Base: reservedBase, Size: reservedSize, Perm: mem.PermRW, World: mem.Secure, Valid: true,
		}); err != nil {
			return err
		}
		if err := g.SetCheckReg(m.ctx, 3, guarder.CheckReg{
			Base: secureBase, Size: secureSize, Perm: mem.PermRW, World: mem.Secure, Valid: true,
		}); err != nil {
			return err
		}
	}
	return nil
}

// MapNonSecure programs a translation window for a NON-secure task on
// behalf of the untrusted driver (translation registers are secure
// state, so the driver cannot write them itself). The monitor applies
// no software checks beyond refusing windows that reach into
// secure-owned memory — for non-secure tasks the hardware checking
// registers carry the isolation (§IV-C: "for non-secure tasks, we do
// not apply any software checks and rely only on the hardware
// mechanisms").
func (m *Monitor) MapNonSecure(core int, slot int, vbase mem.VirtAddr, pbase mem.PhysAddr, size uint64) error {
	m.call()
	g, ok := m.guarders[core]
	if !ok {
		return m.reject(fmt.Errorf("monitor: core %d has no guarder", core))
	}
	if r, found := m.machine.Phys().FindRegion(pbase); found && r.Owner == mem.Secure {
		m.note(TrMapSecureTarget)
		return m.reject(fmt.Errorf("monitor: non-secure window targets secure region %q", r.Name))
	}
	if err := g.SetTransReg(m.ctx, slot, guarder.TransReg{VBase: vbase, PBase: pbase, Size: size, Valid: true}); err != nil {
		return err
	}
	m.note(TrMapOK)
	return nil
}

// Task returns a loaded/queued task by ID.
func (m *Monitor) Task(taskID int) (*SecureTask, error) {
	t, ok := m.tasks[taskID]
	if !ok {
		return nil, ErrUnknownTask
	}
	return t, nil
}

// QueueLen reports pending (submitted, unloaded) secure tasks.
func (m *Monitor) QueueLen() int { return len(m.queue) }

// NextQueued peeks the oldest pending task ID.
func (m *Monitor) NextQueued() (int, error) {
	if len(m.queue) == 0 {
		return 0, ErrQueueEmpty
	}
	return m.queue[0].ID, nil
}

// ModelBytes exposes the decrypted model of a task. It demands the
// secure context: untrusted code cannot pull plaintext models out.
func (m *Monitor) ModelBytes(ctx tee.Context, taskID int) ([]byte, error) {
	if err := ctx.RequireSecure(); err != nil {
		return nil, err
	}
	t, ok := m.tasks[taskID]
	if !ok {
		return nil, ErrUnknownTask
	}
	return t.model, nil
}

func (m *Monitor) reject(err error) error {
	m.stats.IncID(sim.IDMonitorRejected)
	m.obsRejects.Inc()
	return err
}

func sharesCore(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
