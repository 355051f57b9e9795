package sim

import "fmt"

// Resource models a serialized hardware resource — a DRAM channel, a
// NoC link, a DMA port. Claims are granted first-come-first-served in
// *virtual* time: a claim starting at the resource's earliest free
// cycle, occupying it for the requested duration.
//
// Serializing a bandwidth-shared channel this way is equivalent to
// FIFO bandwidth sharing: two 64-cycle transfers issued at the same
// instant finish at +64 and +128, the same aggregate as fair-sharing
// them at half bandwidth each.
type Resource struct {
	name     string
	nextFree Cycle
	busy     Cycle // total occupied cycles, for utilization reporting
	claims   uint64
}

// NewResource names a serialized resource, free from cycle 0.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Claim grants the caller exclusive use for dur cycles starting no
// earlier than `earliest`. It returns the granted start cycle. A zero
// or negative duration claims nothing and returns the earliest usable
// cycle.
func (r *Resource) Claim(earliest, dur Cycle) Cycle {
	start := earliest
	if r.nextFree > start {
		start = r.nextFree
	}
	if dur <= 0 {
		return start
	}
	r.nextFree = start + dur
	r.busy += dur
	r.claims++
	return start
}

// NextFree reports the first cycle at which the resource is idle.
func (r *Resource) NextFree() Cycle { return r.nextFree }

// BusyCycles reports the total cycles the resource has been occupied.
func (r *Resource) BusyCycles() Cycle { return r.busy }

// Claims reports how many grants have been made.
func (r *Resource) Claims() uint64 { return r.claims }

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.busy = 0
	r.claims = 0
}

func (r *Resource) String() string {
	return fmt.Sprintf("%s{nextFree=%d busy=%d claims=%d}", r.name, r.nextFree, r.busy, r.claims)
}
