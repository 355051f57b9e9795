// Package dma models the NPU's integrated DMA engine (a Type-1
// integrated NPU in the paper's §II Fig. 2 taxonomy): it moves tiles
// between system DRAM and the scratchpad, going through a pluggable
// access-control unit (xlate.Translator — IOMMU, Guarder, or none) on
// every request.
//
// Timing per request: a fixed DRAM access latency, plus the transfer
// paced by DRAM bandwidth on a shared channel (contention with other
// cores), plus whatever stall the translator inflicts (page walks).
// Requests are split into 64-byte packets on the bus; the translator
// decides whether it pays per packet (IOMMU) or per request (Guarder).
package dma

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/trace"
	"repro/internal/xlate"
)

// ErrStalled is returned when a request stalls past the watchdog's
// retry budget — the engine reports the request dead rather than
// hanging the core forever.
var ErrStalled = errors.New("dma: request stalled beyond watchdog retry limit")

// Direction of a transfer.
type Direction uint8

const (
	// ToScratchpad loads DRAM -> scratchpad (mvin).
	ToScratchpad Direction = iota
	// ToMemory stores scratchpad -> DRAM (mvout).
	ToMemory
)

func (d Direction) String() string {
	if d == ToScratchpad {
		return "mvin"
	}
	return "mvout"
}

// Config holds the DMA timing parameters.
type Config struct {
	// BytesPerCycle is the DRAM channel bandwidth (16 GB/s @ 1 GHz =
	// 16 B/cycle in the paper's Table II).
	BytesPerCycle uint64
	// RequestLatency is the fixed DRAM access latency per request.
	RequestLatency sim.Cycle
	// WatchdogCycles is how long a stalled request waits before the
	// watchdog fires and the engine reissues it (0 = default 2000).
	WatchdogCycles sim.Cycle
	// RetryLimit bounds watchdog-driven reissues per request
	// (0 = default 3); past it the request fails with ErrStalled.
	RetryLimit int
}

// DefaultConfig matches the paper's SoC (Table II).
func DefaultConfig() Config {
	return Config{BytesPerCycle: 16, RequestLatency: 100, WatchdogCycles: 2000, RetryLimit: 3}
}

// Request describes one DMA transfer of a contiguous region.
type Request struct {
	// VA is the NPU-visible virtual address of the DRAM side.
	VA mem.VirtAddr
	// Bytes to move.
	Bytes uint64
	// Dir is the transfer direction.
	Dir Direction
	// SpadLine is the first scratchpad wordline on the SRAM side.
	SpadLine int
	// World and TaskID identify the issuing context.
	World  mem.World
	TaskID int
	// Functional requests actually move bytes; timing-only requests
	// (the common case in benchmarks) skip data movement.
	Functional bool
}

// Engine is one core's DMA unit.
type Engine struct {
	cfg   Config
	xl    xlate.Translator
	chan_ *sim.Resource // shared DRAM channel
	phys  *mem.Physical
	stats *sim.Stats
	l2    *cache.L2 // optional shared L2 in front of DRAM
	inj   *fault.Injector

	// Observability: pre-resolved instruments, nil unless AttachObserver
	// was called. core labels this engine's spans on the timeline.
	obsXfer  *obs.Histogram
	obsRetry *obs.Counter
	obsRec   *trace.Recorder
	obsProf  *obs.Profiler
	core     int
}

// AttachL2 routes this engine's traffic through a shared L2: hits are
// served by the cache banks, only misses claim the DRAM channel.
func (e *Engine) AttachL2(l2 *cache.L2) { e.l2 = l2 }

// AttachInjector points the engine at a fault injector; DRAM bit-flip
// and stall events land on the next request at/after their cycle.
func (e *Engine) AttachInjector(inj *fault.Injector) { e.inj = inj }

// AttachObserver wires the engine into an observability layer: a span
// per burst, a dma.xfer.cycles histogram of end-to-end request
// latency, a dma.retry.count counter of watchdog reissues, and a
// dma.chan.backlog profiling hook sampling how far ahead the shared
// DRAM channel is booked. core labels this engine's spans. Nil
// detaches.
func (e *Engine) AttachObserver(o *obs.Observer, core int) {
	if o == nil {
		e.obsXfer, e.obsRetry, e.obsRec, e.obsProf = nil, nil, nil, nil
		return
	}
	e.core = core
	e.obsXfer = o.Registry().Histogram("dma.xfer.cycles", obs.DefaultCycleBuckets())
	e.obsRetry = o.Registry().Counter("dma.retry.count")
	e.obsRec = o.Trace()
	e.obsProf = o.Profiler()
	e.obsProf.Register("dma.chan.backlog", func(now sim.Cycle) int64 {
		if b := e.chan_.NextFree() - now; b > 0 {
			return int64(b)
		}
		return 0
	})
}

// recordXfer puts one completed burst on the span timeline and in the
// latency histogram.
func (e *Engine) recordXfer(dir Direction, at, done sim.Cycle) {
	if e.obsXfer == nil {
		return
	}
	e.obsXfer.Observe(int64(done - at))
	if e.obsRec != nil {
		name := "dma.mvin"
		if dir == ToMemory {
			name = "dma.mvout"
		}
		e.obsRec.Record(trace.Event{
			Name: name, Kind: trace.KindDMA, Core: e.core, Start: at, End: done,
		})
	}
}

// New wires a DMA engine to its translator, the shared DRAM channel,
// and physical memory (used only by functional transfers).
func New(cfg Config, xl xlate.Translator, channel *sim.Resource, phys *mem.Physical, stats *sim.Stats) *Engine {
	if cfg.WatchdogCycles <= 0 {
		cfg.WatchdogCycles = 2000
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 3
	}
	return &Engine{cfg: cfg, xl: xl, chan_: channel, phys: phys, stats: stats}
}

// Translator returns the attached access-control unit.
func (e *Engine) Translator() xlate.Translator { return e.xl }

// Phys exposes the physical memory behind the engine (functional
// paths stage operand bytes through it).
func (e *Engine) Phys() *mem.Physical { return e.phys }

// SetTranslator swaps the access-control unit (used when an experiment
// compares mechanisms on one SoC).
func (e *Engine) SetTranslator(xl xlate.Translator) { e.xl = xl }

// Do executes one DMA request starting no earlier than cycle `at`,
// optionally moving real bytes to/from sp, and returns the completion
// cycle. Denied requests return an error and touch nothing.
func (e *Engine) Do(req Request, sp *spad.Scratchpad, domain spad.DomainID, at sim.Cycle) (sim.Cycle, error) {
	if req.Bytes == 0 {
		return at, nil
	}
	need := mem.PermRead
	if req.Dir == ToMemory {
		need = mem.PermWrite
	}
	res, err := e.xl.Translate(xlate.Request{
		VA: req.VA, Bytes: req.Bytes, Need: need, World: req.World, TaskID: req.TaskID,
	}, at)
	if err != nil {
		return 0, fmt.Errorf("dma: %s %d bytes at va %#x: %w", req.Dir, req.Bytes, uint64(req.VA), err)
	}

	e.count(req)

	// The translator's stall delays issue; then the L2 (if attached)
	// serves hits from its banks while misses pay the channel.
	issue := at + res.Stall
	issue, err = e.applyStalls(issue)
	if err != nil {
		return 0, err
	}
	e.injectDRAMFaults(res.PA, req.Bytes, issue)
	done := e.serveBytes(res.PA, req.Bytes, issue)
	done, err = e.scrub(res.PA, req.Bytes, done)
	if err != nil {
		return 0, err
	}

	if req.Functional && sp != nil {
		if err := e.moveBytes(req, res.PA, sp, domain); err != nil {
			return 0, err
		}
	}
	e.obsProf.MaybeSample(at)
	e.recordXfer(req.Dir, at, done)
	return done, nil
}

// count charges one translated request to the DMA and DRAM counters.
func (e *Engine) count(req Request) {
	e.stats.IncID(sim.IDDMARequests)
	e.stats.AddID(sim.IDDMAPackets, int64((req.Bytes+xlate.PacketBytes-1)/xlate.PacketBytes))
	e.stats.AddID(sim.IDDMABytes, int64(req.Bytes))
	e.stats.IncID(sim.IDDRAMRequests)
	e.stats.AddID(sim.IDDRAMBytes, int64(req.Bytes))
}

// applyStalls consumes due DMA-stall events. Each one freezes the
// request until the engine's watchdog fires, then reissues it with a
// doubled (capped) backoff; past RetryLimit the request fails closed.
func (e *Engine) applyStalls(issue sim.Cycle) (sim.Cycle, error) {
	if !e.inj.Enabled() {
		return issue, nil
	}
	backoff := e.cfg.WatchdogCycles
	for attempt := 0; ; attempt++ {
		if _, ok := e.inj.Take(fault.DMAStall, issue); !ok {
			return issue, nil
		}
		e.stats.IncID(sim.IDDMATimeouts)
		if attempt >= e.cfg.RetryLimit {
			return 0, ErrStalled
		}
		e.stats.IncID(sim.IDDMARetries)
		e.obsRetry.Inc()
		issue += backoff
		if backoff < e.cfg.WatchdogCycles*8 {
			backoff *= 2
		}
	}
}

// injectDRAMFaults lands due DRAM bit-flip events on a word inside the
// range this request touches.
func (e *Engine) injectDRAMFaults(pa mem.PhysAddr, bytes uint64, now sim.Cycle) {
	if !e.inj.Enabled() || e.phys == nil {
		return
	}
	for {
		ev, ok := e.inj.Take(fault.DRAMBitFlip, now)
		if !ok {
			return
		}
		words := int(bytes / 8)
		if words < 1 {
			words = 1
		}
		e.phys.InjectBitFlip(pa+mem.PhysAddr(ev.Pick(words)*8), ev.Bit)
	}
}

// scrub runs the memory controller's ECC pass over the request's
// range: corrected words add the correction turnaround to the
// completion cycle, an uncorrectable word fails the request closed.
func (e *Engine) scrub(pa mem.PhysAddr, bytes uint64, done sim.Cycle) (sim.Cycle, error) {
	if e.phys == nil {
		return done, nil
	}
	corrected, err := e.phys.Scrub(pa, bytes)
	if err != nil {
		return 0, fmt.Errorf("dma: %w", err)
	}
	return done + sim.Cycle(corrected)*mem.ECCCorrectionCycles, nil
}

// DoPipelined issues a batch of requests back-to-back, the way the
// hardware DMA queue does: requests pipeline behind each other on the
// DRAM channel, translation stalls delay the stalled request's issue
// (a pipeline bubble), and the fixed DRAM latency is paid once for the
// batch rather than per request. It returns the completion cycle of
// the last request. A denied request aborts the batch.
func (e *Engine) DoPipelined(reqs []Request, sp *spad.Scratchpad, domain spad.DomainID, at sim.Cycle) (sim.Cycle, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	issue := at
	var lastEnd sim.Cycle = at
	for _, req := range reqs {
		if req.Bytes == 0 {
			continue
		}
		need := mem.PermRead
		if req.Dir == ToMemory {
			need = mem.PermWrite
		}
		res, err := e.xl.Translate(xlate.Request{
			VA: req.VA, Bytes: req.Bytes, Need: need, World: req.World, TaskID: req.TaskID,
		}, issue)
		if err != nil {
			return 0, fmt.Errorf("dma: %s %d bytes at va %#x: %w", req.Dir, req.Bytes, uint64(req.VA), err)
		}
		e.count(req)
		issue += res.Stall
		issue, err = e.applyStalls(issue)
		if err != nil {
			return 0, err
		}
		e.injectDRAMFaults(res.PA, req.Bytes, issue)
		end, start := e.serveBytesPipelined(res.PA, req.Bytes, issue)
		end, err = e.scrub(res.PA, req.Bytes, end)
		if err != nil {
			return 0, err
		}
		if end > lastEnd {
			lastEnd = end
		}
		issue = start // next request issues behind this one
		if req.Functional && sp != nil {
			if err := e.moveBytes(req, res.PA, sp, domain); err != nil {
				return 0, err
			}
		}
	}
	e.obsProf.MaybeSample(at)
	e.recordXfer(reqs[0].Dir, at, lastEnd+e.cfg.RequestLatency)
	return lastEnd + e.cfg.RequestLatency, nil
}

// serveBytes fulfils one request's data movement and returns its
// completion cycle (including the fixed request latency).
func (e *Engine) serveBytes(pa mem.PhysAddr, bytes uint64, issue sim.Cycle) sim.Cycle {
	end, _ := e.serveBytesPipelined(pa, bytes, issue)
	return end + e.cfg.RequestLatency
}

// serveBytesPipelined fulfils one request without the fixed latency
// (the batch pays it once) and additionally returns the cycle the next
// pipelined request may issue behind this one.
func (e *Engine) serveBytesPipelined(pa mem.PhysAddr, bytes uint64, issue sim.Cycle) (end, next sim.Cycle) {
	if e.l2 == nil {
		xfer := sim.Cycle((bytes + e.cfg.BytesPerCycle - 1) / e.cfg.BytesPerCycle)
		start := e.chan_.Claim(issue, xfer)
		return start + xfer, start
	}
	r := e.l2.Access(pa, bytes, issue)
	end = r.HitDone
	next = issue
	if r.MissBytes > 0 {
		xfer := sim.Cycle((r.MissBytes + e.cfg.BytesPerCycle - 1) / e.cfg.BytesPerCycle)
		start := e.chan_.Claim(issue, xfer)
		next = start
		if d := start + xfer; d > end {
			end = d
		}
	}
	return end, next
}

func (e *Engine) moveBytes(req Request, pa mem.PhysAddr, sp *spad.Scratchpad, domain spad.DomainID) error {
	lineBytes := sp.LineBytes()
	lines := int((req.Bytes + uint64(lineBytes) - 1) / uint64(lineBytes))
	buf := make([]byte, lineBytes)
	for i := 0; i < lines; i++ {
		off := uint64(i * lineBytes)
		n := uint64(lineBytes)
		if off+n > req.Bytes {
			n = req.Bytes - off
		}
		switch req.Dir {
		case ToScratchpad:
			e.phys.Read(pa+mem.PhysAddr(off), buf[:n])
			if err := sp.Write(domain, req.SpadLine+i, buf[:n]); err != nil {
				return fmt.Errorf("dma: scratchpad write: %w", err)
			}
		case ToMemory:
			if err := sp.Read(domain, req.SpadLine+i, buf[:n]); err != nil {
				return fmt.Errorf("dma: scratchpad read: %w", err)
			}
			e.phys.Write(pa+mem.PhysAddr(off), buf[:n])
		}
	}
	return nil
}
