package snpu

import (
	"sync"

	"repro/internal/experiments"
)

// System pooling for the root-level sweeps (sweep.go's one harness for
// serve, resilience and decode, and chaos): each cell used to boot a
// full protected SoC — regions, boot chain, NPU, guarders, monitor — per
// point, and that churn is what the GC turned into negative scaling.
// Released systems are scrubbed by System.Reset and reused by the next
// cell with the same Config.
//
// The pool honors the same global switches as the experiment-cell SoC
// pool: experiments.SetPooling(false) forces fresh boots (the
// differential tests use this), and an open -metrics-dir collection
// window disables reuse because collection registers one counter sink
// per boot.
var sysPool = struct {
	sync.Mutex
	buckets map[Config][]*System
	hits    uint64
	misses  uint64
}{buckets: make(map[Config][]*System)}

// sysPoolMax caps each bucket; see the experiment pool for rationale.
const sysPoolMax = 16

func sysPoolActive() bool {
	return experiments.PoolingEnabled() && !experiments.CollectingSoCStats()
}

// acquireSystem returns a ready System for cfg — recycled when one is
// pooled, freshly booted otherwise.
func acquireSystem(cfg Config) (*System, error) {
	if sysPoolActive() {
		sysPool.Lock()
		if b := sysPool.buckets[cfg]; len(b) > 0 {
			sys := b[len(b)-1]
			sysPool.buckets[cfg] = b[:len(b)-1]
			sysPool.hits++
			sysPool.Unlock()
			return sys, nil
		}
		sysPool.misses++
		sysPool.Unlock()
	}
	return New(cfg)
}

// release scrubs the system and returns it to the pool. Scrubbing
// happens at hand-back so no tenant's data sits in the pool; a system
// whose reset fails (or that is released while pooling is off) is
// simply dropped for the GC.
func (s *System) release() {
	if s == nil {
		return
	}
	if err := s.Reset(); err != nil {
		return
	}
	if !sysPoolActive() {
		return
	}
	sysPool.Lock()
	defer sysPool.Unlock()
	if len(sysPool.buckets[s.cfg]) >= sysPoolMax {
		return
	}
	sysPool.buckets[s.cfg] = append(sysPool.buckets[s.cfg], s)
}

// SystemPoolCounters reports lifetime pool hits and misses (bench
// reporting and tests).
func SystemPoolCounters() (hits, misses uint64) {
	sysPool.Lock()
	defer sysPool.Unlock()
	return sysPool.hits, sysPool.misses
}
