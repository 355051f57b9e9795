package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/spad"
)

// This file implements the secure router-controller protocol of
// Fig. 12: each NPU core owns a router controller with a send engine
// and a receive engine. A transfer walks the controller through
// idle → peephole (authentication request / verify) → data streaming →
// idle, and a verified channel locks until the tail flit so no other
// core can inject into it mid-stream.

// RouterState is the controller FSM state.
type RouterState uint8

const (
	// StateIdle: no transfer in flight.
	StateIdle RouterState = iota
	// StatePeephole: authentication request sent / being verified.
	StatePeephole
	// StateStreaming: body flits in flight on a locked channel.
	StateStreaming
)

func (s RouterState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StatePeephole:
		return "peephole"
	case StateStreaming:
		return "streaming"
	default:
		return "unknown"
	}
}

// RouterController is the per-core send/receive engine pair.
type RouterController struct {
	node  Coord
	mesh  *Mesh
	state RouterState
	peer  Coord // locked peer while streaming
}

// NewRouterController attaches a controller to a mesh node.
func NewRouterController(node Coord, mesh *Mesh) *RouterController {
	return &RouterController{node: node, mesh: mesh}
}

// State reports the FSM state.
func (r *RouterController) State() RouterState { return r.state }

// Node reports the attached mesh coordinate.
func (r *RouterController) Node() Coord { return r.node }

// BeginSend runs the peephole handshake with dst: the controller
// leaves idle, generates the authentication identity from the sending
// core's current ID state, and — on success — locks the destination's
// receive channel to this node. Authentication is decided from the
// head flit and costs no extra cycles; the returned cycle is when
// streaming may begin (== at).
func (r *RouterController) BeginSend(dst Coord, at sim.Cycle) (sim.Cycle, error) {
	if r.state != StateIdle {
		return 0, fmt.Errorf("noc: send engine at %v busy (%s)", r.node, r.state)
	}
	if !r.mesh.InMesh(dst) {
		return 0, fmt.Errorf("noc: destination %v outside mesh", dst)
	}
	r.state = StatePeephole
	if r.mesh.cfg.Peephole {
		srcID := r.mesh.IDSource(r.node)
		dstID := r.mesh.IDSource(dst)
		if srcID != dstID {
			r.state = StateIdle
			r.mesh.stats.IncID(sim.IDNoCAuthFail)
			return 0, fmt.Errorf("%w: handshake %v(id=%d) -> %v(id=%d)",
				ErrAuthFailed, r.node, srcID, dst, dstID)
		}
		r.mesh.stats.IncID(sim.IDNoCAuthPass)
	}
	// Verified: lock the channel so no other core can use it.
	if lockSrc, locked := r.mesh.locks[dst]; locked && *lockSrc != r.node {
		r.state = StateIdle
		return 0, fmt.Errorf("%w: dst %v already locked to %v", ErrChannelLocked, dst, *lockSrc)
	}
	r.mesh.LockChannel(dst, r.node)
	r.state = StateStreaming
	r.peer = dst
	return at, nil
}

// Stream sends one data packet on the locked channel, returning the
// arrival cycle of its tail.
func (r *RouterController) Stream(flits int, payload []byte, at sim.Cycle) (sim.Cycle, error) {
	if r.state != StateStreaming {
		return 0, fmt.Errorf("noc: stream without authenticated channel (state %s)", r.state)
	}
	pkt := Packet{
		Src:     r.node,
		Dst:     r.peer,
		SrcID:   r.idOf(r.node),
		Flits:   flits,
		Payload: payload,
	}
	return r.mesh.Send(pkt, at)
}

// EndSend releases the channel (tail flit) and returns to idle.
func (r *RouterController) EndSend() {
	if r.state == StateStreaming {
		r.mesh.UnlockChannel(r.peer)
	}
	r.state = StateIdle
}

// Transfer is the common whole-packet convenience path: handshake,
// stream one packet, release.
func (r *RouterController) Transfer(dst Coord, flits int, payload []byte, at sim.Cycle) (sim.Cycle, error) {
	start, err := r.BeginSend(dst, at)
	if err != nil {
		return 0, err
	}
	done, err := r.Stream(flits, payload, start)
	r.EndSend()
	if err != nil {
		return 0, err
	}
	return done, nil
}

func (r *RouterController) idOf(c Coord) spad.DomainID {
	if r.mesh.IDSource == nil {
		return spad.NonSecure
	}
	return r.mesh.IDSource(c)
}
