// Package sim provides the timing substrate used by every timed
// component in the sNPU reproduction (the cycle accounting beneath
// every §VI figure): a cycle clock, serialized resources that grant
// claims first-come-first-served, and typed statistics counters.
//
// There is no event queue. A component computes when an operation
// finishes by claiming the resources it occupies (a DRAM channel, a
// NoC link, a DMA port) at the cycle it is ready; the claim returns
// the granted start, so the timing of a run follows from the order of
// its claims. Running the same configuration again makes the same
// claims in the same order and so produces identical cycle counts.
package sim

// Cycle is a point on (or a span of) the simulated clock. The SoC in
// the paper runs at 1 GHz, so one Cycle is one nanosecond of simulated
// time under the default configuration.
type Cycle int64
