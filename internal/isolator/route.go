// Package isolator holds the NPU Isolator's route-integrity logic
// (§IV-B "Route integrity"). The scratchpad ID rules live with the
// scratchpad model (internal/spad) and the peephole protocol with the
// NoC model (internal/noc); this package verifies, *before loading*,
// that the NPU cores a (possibly malicious) driver scheduled for a
// multi-core task actually form the NoC topology the task expects —
// e.g., a task built for a 2x2 grid must not be spread over 1x4 cores.
package isolator

import (
	"fmt"

	"repro/internal/noc"
)

// Topology is the task's expected core arrangement: a W x H grid. The
// task's NoC sends assume grid-neighbor communication, so the actual
// allocation must be a (possibly translated/transposed) W x H
// rectangle of cores.
type Topology struct {
	W, H int
}

func (t Topology) String() string { return fmt.Sprintf("%dx%d", t.W, t.H) }

// Cores is the number of cores the topology needs.
func (t Topology) Cores() int { return t.W * t.H }

// RouteError explains a route-integrity rejection.
type RouteError struct {
	Expected Topology
	Got      []noc.Coord
	Reason   string
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("isolator: route integrity: expected %s grid, got %v: %s",
		e.Expected, e.Got, e.Reason)
}

// VerifyRoute checks that the scheduled coordinates form a contiguous
// axis-aligned rectangle matching the expected topology (in either
// orientation — a 2x1 task fits a 1x2 allocation). A malicious
// scheduler that allocates the right *number* of cores in the wrong
// shape (the paper's 2x2-vs-1x4 example) is rejected.
func VerifyRoute(expected Topology, scheduled []noc.Coord) error {
	if expected.W <= 0 || expected.H <= 0 {
		return &RouteError{Expected: expected, Got: scheduled, Reason: "degenerate expected topology"}
	}
	if len(scheduled) != expected.Cores() {
		return &RouteError{Expected: expected, Got: scheduled,
			Reason: fmt.Sprintf("%d cores scheduled, %d required", len(scheduled), expected.Cores())}
	}
	seen := make(map[noc.Coord]bool, len(scheduled))
	minX, minY := scheduled[0].X, scheduled[0].Y
	maxX, maxY := scheduled[0].X, scheduled[0].Y
	for _, c := range scheduled {
		if seen[c] {
			return &RouteError{Expected: expected, Got: scheduled, Reason: fmt.Sprintf("core %v scheduled twice", c)}
		}
		seen[c] = true
		if c.X < minX {
			minX = c.X
		}
		if c.X > maxX {
			maxX = c.X
		}
		if c.Y < minY {
			minY = c.Y
		}
		if c.Y > maxY {
			maxY = c.Y
		}
	}
	w := maxX - minX + 1
	h := maxY - minY + 1
	if w*h != len(scheduled) {
		return &RouteError{Expected: expected, Got: scheduled, Reason: "allocation is not a contiguous rectangle"}
	}
	if !(w == expected.W && h == expected.H) && !(w == expected.H && h == expected.W) {
		return &RouteError{Expected: expected, Got: scheduled,
			Reason: fmt.Sprintf("allocation is %dx%d", w, h)}
	}
	// Every cell of the bounding box must be present (no holes).
	for x := minX; x <= maxX; x++ {
		for y := minY; y <= maxY; y++ {
			if !seen[noc.Coord{X: x, Y: y}] {
				return &RouteError{Expected: expected, Got: scheduled,
					Reason: fmt.Sprintf("hole at %v", noc.Coord{X: x, Y: y})}
			}
		}
	}
	return nil
}
