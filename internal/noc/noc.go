// Package noc models the multi-core NPU's network-on-chip: a 2D mesh
// with XY dimension-order routing, wormhole switching with per-link
// contention, and the paper's peephole authentication extension
// (§IV-B, §V, Fig. 8/12).
//
// Packets carry a head flit (route + identity), body flits (payload),
// and a tail flit. The peephole mechanism authenticates the head
// flit's identity (the source core's ID state) at the destination's
// receive engine: a packet from a secure core is rejected by a
// non-secure destination and vice versa. Authentication rides the
// head flit — zero extra cycles — and a passing authentication locks
// the router channel to the (src,dst) pair until the tail flit.
package noc

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/trace"
)

// Coord addresses a node in the mesh.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Hops returns the XY-routing hop count between two nodes.
func (c Coord) Hops(to Coord) int {
	dx := to.X - c.X
	if dx < 0 {
		dx = -dx
	}
	dy := to.Y - c.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// FlitBytes is the payload of one flit — one scratchpad wordline
// (128 bits) in the Gemmini-style configuration.
const FlitBytes = 16

// ErrAuthFailed is returned when the peephole check rejects a packet.
var ErrAuthFailed = errors.New("noc: peephole authentication failed")

// ErrChannelLocked is returned when a locked receive channel is
// addressed by a different source.
var ErrChannelLocked = errors.New("noc: receive channel locked to another source")

// ErrCorrupt is returned when a packet fails its CRC on every allowed
// retry — the transfer fails closed rather than delivering damage.
var ErrCorrupt = errors.New("noc: packet corrupted beyond retry limit")

// ErrDropped is returned when a packet is lost and cannot be
// retransmitted (no CRC/ACK protocol, or retries exhausted).
var ErrDropped = errors.New("noc: packet dropped")

// ErrLinkDown is returned when no live route exists between two nodes
// after permanent link failures.
var ErrLinkDown = errors.New("noc: no live route (permanent link failure)")

// Packet is one NoC transfer: header identity plus payload flits.
type Packet struct {
	Src, Dst Coord
	// SrcID is the sending core's ID state, stamped into the head flit
	// by the send engine (the peephole identity).
	SrcID spad.DomainID
	// Flits is the number of body flits (scratchpad lines).
	Flits int
	// Payload optionally carries functional data (len <=
	// Flits*FlitBytes); timing-only traffic leaves it nil.
	Payload []byte
}

// Config describes the mesh.
type Config struct {
	Width, Height int
	// RouterDelay is the per-hop head-flit latency in cycles.
	RouterDelay sim.Cycle
	// LinkBytesPerCycle is the per-link bandwidth; one flit per cycle
	// at 16B flits by default.
	LinkBytesPerCycle int
	// Peephole enables authentication; false models the unauthorized
	// baseline NoC.
	Peephole bool
	// CRC enables per-packet CRC at the receive engine plus the
	// NACK/retransmit protocol. Without it corruption flows silently
	// and a dropped packet is simply lost.
	CRC bool
	// RetryLimit bounds retransmissions per packet (CRC mode).
	RetryLimit int
	// NackTimeout is the sender's wait before a retransmission, both
	// for an explicit NACK and for a lost-packet timeout.
	NackTimeout sim.Cycle
}

// DefaultConfig returns the evaluation mesh configuration. CRC
// protection is on: it is timing-invisible until a fault actually
// corrupts or drops a packet.
func DefaultConfig(w, h int, peephole bool) Config {
	return Config{
		Width: w, Height: h,
		RouterDelay:       1,
		LinkBytesPerCycle: FlitBytes,
		Peephole:          peephole,
		CRC:               true,
		RetryLimit:        3,
		NackTimeout:       64,
	}
}

// linkKey identifies a directed link between adjacent nodes.
type linkKey struct {
	from, to Coord
}

// Directed-link direction codes for the dense link index.
const (
	dirEast  = 0 // +X
	dirWest  = 1 // -X
	dirNorth = 2 // +Y
	dirSouth = 3 // -Y
	numDirs  = 4
)

// Mesh is the NoC fabric. Node ID states live with the attached NPU
// cores; the mesh queries them through the IDSource callback so the
// router sees the *current* core state at authentication time.
//
// Links live in a dense slice indexed by (node, direction) rather than
// a map: Send claims every link on the path per packet, and the map
// hash of a two-Coord key dominated the per-flit bookkeeping cost.
type Mesh struct {
	cfg   Config
	links []*sim.Resource // indexed by linkIndex; nil at mesh edges
	dead  []bool          // permanently failed links, same indexing
	stats *sim.Stats
	// IDSource reports the current ID state of the core at a node.
	// The multi-core NPU wires this to its cores; tests may stub it.
	IDSource func(Coord) spad.DomainID
	// locks[dst] is the source a receive channel is locked to, if any.
	locks map[Coord]*Coord
	// Delivered packets per destination, for functional receivers.
	inboxes map[Coord][]Packet

	// Fault state: injector hookup, failed-link count, and a
	// deterministic link ordering for selector-based targeting.
	inj       *fault.Injector
	deadCount int
	linkOrder []linkKey
	// Scratch route buffers reused across Sends (the mesh, like every
	// timed component, is confined to its SoC's single thread).
	pathBuf, altBuf []Coord

	// Observability: pre-resolved instruments, nil unless AttachObserver
	// was called (the off-by-default contract — one nil check per event).
	obsStall *obs.Histogram
	obsRec   *trace.Recorder
	obsProf  *obs.Profiler
}

// linkIndex maps a directed link between adjacent nodes to its slot in
// the dense link slice.
func (m *Mesh) linkIndex(from, to Coord) int {
	dir := dirSouth
	switch {
	case to.X == from.X+1:
		dir = dirEast
	case to.X == from.X-1:
		dir = dirWest
	case to.Y == from.Y+1:
		dir = dirNorth
	}
	return (from.Y*m.cfg.Width+from.X)*numDirs + dir
}

// NewMesh builds the fabric with all links idle.
func NewMesh(cfg Config, stats *sim.Stats) (*Mesh, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.LinkBytesPerCycle <= 0 {
		cfg.LinkBytesPerCycle = FlitBytes
	}
	m := &Mesh{
		cfg:      cfg,
		stats:    stats,
		IDSource: func(Coord) spad.DomainID { return spad.NonSecure },
		locks:    make(map[Coord]*Coord),
		inboxes:  make(map[Coord][]Packet),
	}
	m.links = make([]*sim.Resource, cfg.Width*cfg.Height*numDirs)
	m.dead = make([]bool, len(m.links))
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			c := Coord{x, y}
			for _, n := range m.neighbors(c) {
				lk := linkKey{c, n}
				m.links[m.linkIndex(c, n)] = sim.NewResource(fmt.Sprintf("link%v->%v", c, n))
				m.linkOrder = append(m.linkOrder, lk)
			}
		}
	}
	sort.Slice(m.linkOrder, func(i, j int) bool {
		a, b := m.linkOrder[i], m.linkOrder[j]
		if a.from != b.from {
			if a.from.Y != b.from.Y {
				return a.from.Y < b.from.Y
			}
			return a.from.X < b.from.X
		}
		if a.to.Y != b.to.Y {
			return a.to.Y < b.to.Y
		}
		return a.to.X < b.to.X
	})
	return m, nil
}

// AttachInjector points the mesh at a fault injector; corrupt/drop
// events hit in-flight packets, link-down events permanently kill a
// link chosen by the event's selector.
func (m *Mesh) AttachInjector(inj *fault.Injector) { m.inj = inj }

// Reset power-cycles the mesh for arena-style reuse: link timing
// resources return to cycle zero, permanently failed links come back
// up, receive-channel locks and undelivered inbox packets are dropped,
// and any fault injector is detached. Topology (links, ordering) is
// construction-time state and survives.
func (m *Mesh) Reset() {
	for _, l := range m.links {
		if l != nil {
			l.Reset()
		}
	}
	clear(m.dead)
	m.deadCount = 0
	clear(m.locks)
	clear(m.inboxes)
	m.inj = nil
}

// AttachObserver wires the mesh into an observability layer: a send
// span per delivered packet, a noc.link.stall_cycles histogram of
// per-attempt contention stalls, and a noc.link.occupancy profiling
// hook sampling the busiest link's claim backlog. Nil detaches.
func (m *Mesh) AttachObserver(o *obs.Observer) {
	if o == nil {
		m.obsStall, m.obsRec, m.obsProf = nil, nil, nil
		return
	}
	m.obsStall = o.Registry().Histogram("noc.link.stall_cycles", obs.DefaultCycleBuckets())
	m.obsRec = o.Trace()
	m.obsProf = o.Profiler()
	m.obsProf.Register("noc.link.occupancy", m.linkBacklog)
}

// linkBacklog reports how many cycles past now the most contended
// link is already claimed — the mesh's instantaneous congestion depth.
func (m *Mesh) linkBacklog(now sim.Cycle) int64 {
	var max sim.Cycle
	for _, l := range m.links {
		if l == nil {
			continue
		}
		if b := l.NextFree() - now; b > max {
			max = b
		}
	}
	return int64(max)
}

// FailLink permanently kills the directed link from->to (and is also
// how injected NoCLinkDown events land). Traffic reroutes around it or
// fails closed if no live path remains.
func (m *Mesh) FailLink(from, to Coord) {
	if !m.InMesh(from) || !m.InMesh(to) || from.Hops(to) != 1 {
		return
	}
	idx := m.linkIndex(from, to)
	if m.links[idx] == nil || m.dead[idx] {
		return
	}
	m.dead[idx] = true
	m.deadCount++
	m.stats.IncID(sim.IDNoCLinksDown)
}

// DeadLinks reports how many directed links have failed.
func (m *Mesh) DeadLinks() int { return m.deadCount }

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

func (m *Mesh) neighbors(c Coord) []Coord {
	var out []Coord
	if c.X > 0 {
		out = append(out, Coord{c.X - 1, c.Y})
	}
	if c.X < m.cfg.Width-1 {
		out = append(out, Coord{c.X + 1, c.Y})
	}
	if c.Y > 0 {
		out = append(out, Coord{c.X, c.Y - 1})
	}
	if c.Y < m.cfg.Height-1 {
		out = append(out, Coord{c.X, c.Y + 1})
	}
	return out
}

// InMesh reports whether c is a valid node.
func (m *Mesh) InMesh(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// Route computes the XY dimension-order path from src to dst,
// inclusive of both endpoints. The returned slice is owned by the
// caller.
func (m *Mesh) Route(src, dst Coord) ([]Coord, error) {
	path, err := m.route(nil, src, dst, false)
	if err != nil {
		return nil, err
	}
	return path, nil
}

// route computes a dimension-order path into buf (reused when non-nil);
// yFirst selects YX routing (the escape path used around a failed
// link).
func (m *Mesh) route(buf []Coord, src, dst Coord, yFirst bool) ([]Coord, error) {
	if !m.InMesh(src) || !m.InMesh(dst) {
		return nil, fmt.Errorf("noc: route %v->%v leaves the %dx%d mesh", src, dst, m.cfg.Width, m.cfg.Height)
	}
	path := append(buf[:0], src)
	cur := src
	stepX := func() {
		for cur.X != dst.X {
			if cur.X < dst.X {
				cur.X++
			} else {
				cur.X--
			}
			path = append(path, cur)
		}
	}
	stepY := func() {
		for cur.Y != dst.Y {
			if cur.Y < dst.Y {
				cur.Y++
			} else {
				cur.Y--
			}
			path = append(path, cur)
		}
	}
	if yFirst {
		stepY()
		stepX()
	} else {
		stepX()
		stepY()
	}
	return path, nil
}

// pathAlive reports whether every link on the path is functional.
func (m *Mesh) pathAlive(path []Coord) bool {
	for i := 0; i+1 < len(path); i++ {
		if m.dead[m.linkIndex(path[i], path[i+1])] {
			return false
		}
	}
	return true
}

// pickRoute selects the XY path, escaping to YX routing around dead
// links; if both dimension orders are blocked the mesh fails closed.
// The returned slice aliases the mesh's scratch buffers and is valid
// until the next routing call.
func (m *Mesh) pickRoute(src, dst Coord) ([]Coord, error) {
	path, err := m.route(m.pathBuf, src, dst, false)
	if err != nil {
		return nil, err
	}
	m.pathBuf = path
	if m.pathAlive(path) {
		return path, nil
	}
	alt, err := m.route(m.altBuf, src, dst, true)
	if err != nil {
		return nil, err
	}
	m.altBuf = alt
	if m.pathAlive(alt) {
		m.stats.IncID(sim.IDNoCReroutes)
		return alt, nil
	}
	return nil, fmt.Errorf("%w: %v->%v", ErrLinkDown, src, dst)
}

// takeLinkFaults applies any due permanent link-failure events. The
// victim link is chosen deterministically from the event selector over
// the sorted link order.
func (m *Mesh) takeLinkFaults(now sim.Cycle) {
	for {
		ev, ok := m.inj.Take(fault.NoCLinkDown, now)
		if !ok {
			return
		}
		lk := m.linkOrder[ev.Pick(len(m.linkOrder))]
		m.FailLink(lk.from, lk.to)
	}
}

// Send transmits a packet starting no earlier than cycle `at`,
// returning the cycle at which the tail flit arrives at the
// destination. It performs peephole authentication (if enabled) at the
// destination's receive engine before the body streams.
//
// Timing: the head flit traverses hop-by-hop paying RouterDelay per
// hop; body flits stream behind it wormhole-style, so the serialized
// cost is hops*RouterDelay + flits cycles on the bottleneck link.
// Authentication adds zero cycles — it is decided from the head flit
// the receive engine already has.
func (m *Mesh) Send(pkt Packet, at sim.Cycle) (sim.Cycle, error) {
	if pkt.Flits <= 0 {
		return 0, fmt.Errorf("noc: packet with %d flits", pkt.Flits)
	}
	if m.inj.Enabled() {
		m.takeLinkFaults(at)
	}
	path, err := m.pickRoute(pkt.Src, pkt.Dst)
	if err != nil {
		return 0, err
	}
	m.stats.IncID(sim.IDNoCPackets)
	m.obsProf.MaybeSample(at)

	// Channel lock: once a transfer is authenticated, the receive
	// channel rejects other sources until the tail flit (modeled as
	// until the transfer completes; Send is atomic in virtual time).
	if lockSrc, locked := m.locks[pkt.Dst]; locked && *lockSrc != pkt.Src {
		return 0, fmt.Errorf("%w: dst %v locked to %v", ErrChannelLocked, pkt.Dst, *lockSrc)
	}

	// Peephole authentication at the destination's receive engine.
	if m.cfg.Peephole {
		dstID := m.IDSource(pkt.Dst)
		if dstID != pkt.SrcID {
			m.stats.IncID(sim.IDNoCAuthFail)
			return 0, fmt.Errorf("%w: src %v id=%d, dst %v id=%d",
				ErrAuthFailed, pkt.Src, pkt.SrcID, pkt.Dst, dstID)
		}
		m.stats.IncID(sim.IDNoCAuthPass)
	}

	hops := len(path) - 1
	flitCycles := sim.Cycle(pkt.Flits) * sim.Cycle(FlitBytes/m.cfg.LinkBytesPerCycle)
	if flitCycles < sim.Cycle(pkt.Flits) {
		flitCycles = sim.Cycle(pkt.Flits)
	}
	// Transmit, replaying on a NACK (CRC failure) or lost-packet
	// timeout up to RetryLimit times. Each attempt claims every link on
	// the path for the body duration; the transfer is paced by the most
	// contended link. With no fault due the first attempt lands and the
	// loop body reduces exactly to the fault-free cost model.
	start := at
	for attempt := 0; ; attempt++ {
		reqStart := start
		for i := 0; i+1 < len(path); i++ {
			link := m.links[m.linkIndex(path[i], path[i+1])]
			s := link.Claim(start, flitCycles)
			if s > start {
				start = s
			}
		}
		m.obsStall.Observe(int64(start - reqStart))
		done := start + sim.Cycle(hops)*m.cfg.RouterDelay + flitCycles
		m.stats.AddID(sim.IDNoCFlits, int64(pkt.Flits))

		if _, ok := m.inj.Take(fault.NoCDrop, done); ok {
			m.stats.IncID(sim.IDNoCDrops)
			if m.cfg.CRC && attempt < m.cfg.RetryLimit {
				// Sender's ACK watchdog fires and retransmits.
				m.stats.IncID(sim.IDNoCRetries)
				start = done + m.cfg.NackTimeout
				continue
			}
			return 0, fmt.Errorf("%w: %v->%v", ErrDropped, pkt.Src, pkt.Dst)
		}
		if ev, ok := m.inj.Take(fault.NoCCorrupt, done); ok {
			if !m.cfg.CRC {
				// No CRC: the damaged flit is delivered as-is — the
				// silent-corruption baseline.
				if len(pkt.Payload) > 0 {
					corrupted := append([]byte(nil), pkt.Payload...)
					corrupted[ev.Pick(len(corrupted))] ^= 1 << uint(ev.Bit%8)
					pkt.Payload = corrupted
				}
				m.inboxes[pkt.Dst] = append(m.inboxes[pkt.Dst], pkt)
				m.recordSend(pkt, at, done)
				return done, nil
			}
			m.stats.IncID(sim.IDNoCCRCFail)
			if attempt < m.cfg.RetryLimit {
				// Receive engine NACKs; sender retransmits.
				m.stats.IncID(sim.IDNoCRetries)
				start = done + m.cfg.NackTimeout
				continue
			}
			return 0, fmt.Errorf("%w: %v->%v", ErrCorrupt, pkt.Src, pkt.Dst)
		}

		if pkt.Payload != nil {
			m.inboxes[pkt.Dst] = append(m.inboxes[pkt.Dst], pkt)
		}
		m.recordSend(pkt, at, done)
		return done, nil
	}
}

// recordSend puts one delivered packet on the span timeline, tracked
// to the destination node's linear index. The static name keeps the
// per-packet cost allocation-free.
func (m *Mesh) recordSend(pkt Packet, at, done sim.Cycle) {
	if m.obsRec == nil {
		return
	}
	m.obsRec.Record(trace.Event{
		Name:  "noc.send",
		Kind:  trace.KindNoC,
		Core:  pkt.Dst.Y*m.cfg.Width + pkt.Dst.X,
		Start: at,
		End:   done,
	})
}

// LockChannel pins dst's receive channel to src (set after a
// successful authentication when a stream of packets follows).
func (m *Mesh) LockChannel(dst, src Coord) {
	s := src
	m.locks[dst] = &s
}

// UnlockChannel releases dst's receive channel (tail flit processed).
func (m *Mesh) UnlockChannel(dst Coord) {
	delete(m.locks, dst)
}

// Receive drains the functional inbox for a node.
func (m *Mesh) Receive(dst Coord) []Packet {
	pkts := m.inboxes[dst]
	m.inboxes[dst] = nil
	return pkts
}
