package mem

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoSpace reports an allocation that does not fit the remaining
// free spans. Callers that queue work against a full allocator (the
// scheduler's secure-memory admission control) match it with
// errors.Is to distinguish "retry later" from hard rejections.
var ErrNoSpace = errors.New("mem: out of contiguous memory")

// ContigAlloc is a CMA-style contiguous allocator over a physical
// range. The NPU driver uses one of these over the NPU-reserved memory
// region to carve out DMA buffer chunks (the paper's ION/NVMA/PMEM
// analogue); the NPU Monitor's trusted allocator uses a second one
// over secure memory.
//
// It is a first-fit allocator over a sorted free list with coalescing
// on free — simple, deterministic, and sufficient for chunk-granular
// DMA buffers.
type ContigAlloc struct {
	base PhysAddr
	size uint64
	free []span // sorted by base, coalesced
	used map[PhysAddr]uint64
}

type span struct {
	base PhysAddr
	size uint64
}

// NewContigAlloc manages [base, base+size).
func NewContigAlloc(base PhysAddr, size uint64) *ContigAlloc {
	return &ContigAlloc{
		base: base,
		size: size,
		free: []span{{base, size}},
		used: make(map[PhysAddr]uint64),
	}
}

// Base returns the start of the managed range.
func (a *ContigAlloc) Base() PhysAddr { return a.base }

// Size returns the total managed bytes.
func (a *ContigAlloc) Size() uint64 { return a.size }

// Alloc carves a contiguous buffer of the given size, aligned to
// align (which must be a power of two, or zero for byte alignment).
func (a *ContigAlloc) Alloc(size, align uint64) (PhysAddr, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size allocation")
	}
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	for i, f := range a.free {
		start := (uint64(f.base) + align - 1) &^ (align - 1)
		pad := start - uint64(f.base)
		if f.size < pad || f.size-pad < size {
			continue
		}
		// Split the free span into [pre][alloc][post].
		var repl []span
		if pad > 0 {
			repl = append(repl, span{f.base, pad})
		}
		if rest := f.size - pad - size; rest > 0 {
			repl = append(repl, span{PhysAddr(start + size), rest})
		}
		a.free = append(a.free[:i], append(repl, a.free[i+1:]...)...)
		a.used[PhysAddr(start)] = size
		return PhysAddr(start), nil
	}
	return 0, fmt.Errorf("%w (want %d bytes, %d free)", ErrNoSpace, size, a.FreeBytes())
}

// Free releases a buffer previously returned by Alloc.
func (a *ContigAlloc) Free(addr PhysAddr) error {
	size, ok := a.used[addr]
	if !ok {
		return fmt.Errorf("mem: free of unallocated address %#x", uint64(addr))
	}
	delete(a.used, addr)
	a.free = append(a.free, span{addr, size})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].base < a.free[j].base })
	// Coalesce adjacent spans.
	out := a.free[:0]
	for _, s := range a.free {
		if n := len(out); n > 0 && out[n-1].base+PhysAddr(out[n-1].size) == s.base {
			out[n-1].size += s.size
		} else {
			out = append(out, s)
		}
	}
	a.free = out
	return nil
}

// Reset returns the allocator to its freshly constructed state: every
// live allocation is discarded and the full range becomes one free
// span. Used when a pooled System is recycled — the driver's and
// monitor's allocators restart with deterministic (empty) occupancy so
// a reused instance places chunks at the same addresses a fresh boot
// would.
func (a *ContigAlloc) Reset() {
	a.free = a.free[:0]
	a.free = append(a.free, span{a.base, a.size})
	clear(a.used)
}

// FreeBytes reports the total unallocated bytes.
func (a *ContigAlloc) FreeBytes() uint64 {
	var total uint64
	for _, f := range a.free {
		total += f.size
	}
	return total
}

// UsedBytes reports the total allocated bytes.
func (a *ContigAlloc) UsedBytes() uint64 { return a.size - a.FreeBytes() }

// LargestFree reports the largest contiguous free span (a
// fragmentation indicator).
func (a *ContigAlloc) LargestFree() uint64 {
	var max uint64
	for _, f := range a.free {
		if f.size > max {
			max = f.size
		}
	}
	return max
}

// Allocations returns the live (addr, size) pairs sorted by address.
func (a *ContigAlloc) Allocations() []Region {
	out := make([]Region, 0, len(a.used))
	for addr, size := range a.used {
		out = append(out, Region{Base: addr, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}
