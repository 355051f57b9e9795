package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Multicast: one packet delivered to several destinations as a tree.
// Links shared by multiple destinations' XY paths carry the body flits
// once — the fabric forks the stream at branch routers — so an
// all-gather among neighboring cores costs far less than repeated
// unicasts. This is an extension beyond the paper's unicast peephole
// protocol; authentication stays per-destination and the whole
// multicast fails closed if ANY destination rejects the identity (a
// partially-delivered secure stream would be a protocol hole).

// Multicast sends pkt.Flits body flits from pkt.Src to every
// destination in dsts, starting no earlier than `at`. It returns the
// cycle the last destination receives the tail flit.
func (m *Mesh) Multicast(pkt Packet, dsts []Coord, at sim.Cycle) (sim.Cycle, error) {
	if len(dsts) == 0 {
		return 0, fmt.Errorf("noc: multicast with no destinations")
	}
	if pkt.Flits <= 0 {
		return 0, fmt.Errorf("noc: packet with %d flits", pkt.Flits)
	}
	// Authenticate every destination before any flit moves.
	if m.cfg.Peephole {
		for _, dst := range dsts {
			if m.IDSource(dst) != pkt.SrcID {
				m.stats.IncID(sim.IDNoCAuthFail)
				return 0, fmt.Errorf("%w: multicast %v(id=%d) -> %v(id=%d)",
					ErrAuthFailed, pkt.Src, pkt.SrcID, dst, m.IDSource(dst))
			}
		}
		m.stats.AddID(sim.IDNoCAuthPass, int64(len(dsts)))
	}
	// Build the multicast tree: the union of the XY paths' links,
	// deduplicated over the dense link index.
	tree := make(map[int]bool)
	maxHops := 0
	for _, dst := range dsts {
		if lock, locked := m.locks[dst]; locked && *lock != pkt.Src {
			return 0, fmt.Errorf("%w: dst %v locked to %v", ErrChannelLocked, dst, *lock)
		}
		path, err := m.route(nil, pkt.Src, dst, false)
		if err != nil {
			return 0, err
		}
		if h := len(path) - 1; h > maxHops {
			maxHops = h
		}
		for i := 0; i+1 < len(path); i++ {
			tree[m.linkIndex(path[i], path[i+1])] = true
		}
	}
	flitCycles := sim.Cycle(pkt.Flits) * sim.Cycle(FlitBytes/m.cfg.LinkBytesPerCycle)
	if flitCycles < sim.Cycle(pkt.Flits) {
		flitCycles = sim.Cycle(pkt.Flits)
	}
	// Claim the tree in two order-independent passes: find the cycle at
	// which every branch link is free, then occupy them all from it.
	// Claiming while folding the running max (the old single pass) let
	// Go's random map-iteration order leak into per-link nextFree state,
	// making later transfers' timing nondeterministic run-to-run.
	start := at
	for idx := range tree {
		if f := m.links[idx].NextFree(); f > start {
			start = f
		}
	}
	for idx := range tree {
		m.links[idx].Claim(start, flitCycles)
	}
	done := start + sim.Cycle(maxHops)*m.cfg.RouterDelay + flitCycles
	m.stats.IncID(sim.IDNoCPackets)
	m.stats.AddID(sim.IDNoCFlits, int64(pkt.Flits))
	if pkt.Payload != nil {
		for _, dst := range dsts {
			m.inboxes[dst] = append(m.inboxes[dst], Packet{
				Src: pkt.Src, Dst: dst, SrcID: pkt.SrcID,
				Flits: pkt.Flits, Payload: pkt.Payload,
			})
		}
	}
	return done, nil
}
