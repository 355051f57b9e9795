// Package schedgen is the shared schedule generator behind the random
// property suite and the coverage-guided fuzz campaign (test
// infrastructure, beyond the paper). Both suites draw tenants, requests,
// arrival spacing, and policy knobs from one distribution, through one
// Source abstraction — a *rand.Rand for the property tests, a finite
// fuzz-input ByteSource for the campaign decoder — so the two
// explorations of the sched×monitor×fault space cannot drift apart.
package schedgen

import (
	"encoding/binary"
	"fmt"

	snpu "repro"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Source is the entropy a schedule draw consumes. *rand.Rand satisfies
// it directly; ByteSource adapts a fuzz input.
type Source interface {
	Intn(n int) int
	Int63n(n int64) int64
	Float64() float64
}

// ByteSource reads draws from a finite byte string, yielding zeros
// once exhausted. It is the decoder half of the campaign's bytes →
// scenario mapping: the same bytes always replay the same schedule,
// and any byte string (including empty) decodes to a valid one.
type ByteSource struct {
	buf []byte
	off int
}

// NewByteSource wraps b. The source never mutates b.
func NewByteSource(b []byte) *ByteSource { return &ByteSource{buf: b} }

// Next returns the next raw byte (zero once exhausted).
func (s *ByteSource) Next() byte {
	if s.off >= len(s.buf) {
		return 0
	}
	b := s.buf[s.off]
	s.off++
	return b
}

// Exhausted reports whether every input byte has been consumed.
func (s *ByteSource) Exhausted() bool { return s.off >= len(s.buf) }

// Uint16 reads two bytes big-endian.
func (s *ByteSource) Uint16() uint16 { return uint16(s.Next())<<8 | uint16(s.Next()) }

// Uint32 reads four bytes big-endian.
func (s *ByteSource) Uint32() uint32 {
	return uint32(s.Uint16())<<16 | uint32(s.Uint16())
}

// Uint64 reads eight bytes big-endian.
func (s *ByteSource) Uint64() uint64 {
	return uint64(s.Uint32())<<32 | uint64(s.Uint32())
}

// Intn maps one byte (two for large n) onto [0, n).
func (s *ByteSource) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	if n <= 256 {
		return int(s.Next()) % n
	}
	return int(s.Uint16()) % n
}

// Int63n maps four bytes onto [0, n).
func (s *ByteSource) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.Uint32()) % n
}

// Float64 maps two bytes onto [0, 1).
func (s *ByteSource) Float64() float64 { return float64(s.Uint16()) / 65536.0 }

// Models is the model pool both suites schedule from.
var Models = []string{"mobilenet", "yololite"}

// Profile bounds a schedule draw. The zero value is not useful; start
// from DefaultProfile (the property suite's historical distribution).
type Profile struct {
	MaxCores         int // cores drawn as 1 + Intn(MaxCores)
	MaxTenants       int // tenants drawn as 1 + Intn(MaxTenants)
	MinRequests      int // requests drawn as MinRequests + Intn(MaxExtraRequests)
	MaxExtraRequests int
	SecureFrac       float64 // probability a request is secure
	DeadlineFrac     float64 // probability a request carries a deadline
	ArrivalSpread    int64   // inter-arrival gap drawn as Int63n(ArrivalSpread)
	Models           []string
}

// DefaultProfile is the distribution the ~200-schedule property suite
// has always used (and that caught the admit-early bug).
func DefaultProfile() Profile {
	return Profile{
		MaxCores:         3,
		MaxTenants:       3,
		MinRequests:      3,
		MaxExtraRequests: 6,
		SecureFrac:       0.6,
		DeadlineFrac:     0.25,
		ArrivalSpread:    2_000_000,
		Models:           Models,
	}
}

// Cores draws the core set: 1 + Intn(MaxCores) consecutive cores.
func Cores(src Source, p Profile) []int {
	n := 1 + src.Intn(p.MaxCores)
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// Tenants draws the tenant count: 1 + Intn(MaxTenants).
func Tenants(src Source, p Profile) int { return 1 + src.Intn(p.MaxTenants) }

// Config draws scheduler policy knobs with the property suite's
// distribution: batch width always, restart budget on half the draws,
// per-tenant queue bound on a third.
func Config(src Source, cores []int) sched.Config {
	cfg := sched.Config{Cores: cores, MaxBatch: 1 + src.Intn(4)}
	if src.Intn(2) == 0 {
		cfg.MaxRestarts = 1 + src.Intn(2)
	}
	if src.Intn(3) == 0 {
		cfg.MaxQueuePerTenant = 2 + src.Intn(3)
	}
	return cfg
}

// Requests draws the request schedule: MinRequests + Intn(extra)
// requests with monotone arrivals, tenant/model/priority per draw,
// SecureFrac of them sealed under their tenant key, DeadlineFrac with
// a feasible-looking deadline. sealedBy maps TenantKeyID(i) to the
// sealed blob a secure request of tenant i ships.
func Requests(src Source, p Profile, tenants int, sealedBy map[string][]byte) []sched.Request {
	nReq := p.MinRequests + src.Intn(p.MaxExtraRequests)
	reqs := make([]sched.Request, 0, nReq)
	var arrival int64
	for id := 1; id <= nReq; id++ {
		arrival += src.Int63n(p.ArrivalSpread)
		ti := src.Intn(tenants)
		r := sched.Request{
			ID:       id,
			Tenant:   fmt.Sprintf("t%d", ti),
			Model:    p.Models[src.Intn(len(p.Models))],
			Priority: sched.Priority(src.Intn(3)),
			Arrival:  sim.Cycle(arrival),
		}
		if src.Float64() < p.SecureFrac {
			r.Secure = true
			r.KeyID = TenantKeyID(ti)
			r.Sealed = sealedBy[r.KeyID]
		}
		if src.Float64() < p.DeadlineFrac {
			r.Deadline = r.Arrival + 1_000_000 + sim.Cycle(src.Int63n(10_000_000))
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TenantKeyID is the conventional key identifier for tenant i; it
// matches the tenant naming in Requests and in snpu.ServeTrace.
func TenantKeyID(ti int) string { return fmt.Sprintf("t%d-key", ti) }

// TenantKey derives tenant i's sealing key from the schedule seed.
func TenantKey(seed int64, ti int) []byte { return snpu.ChaosKey(seed*31 + int64(ti)) }

// ProvisionKeys provisions TenantKey-derived keys for tenants 0..n-1
// on a freshly booted System.
func ProvisionKeys(sys *snpu.System, seed int64, tenants int) error {
	for ti := 0; ti < tenants; ti++ {
		if err := sys.ProvisionKey(TenantKeyID(ti), TenantKey(seed, ti)); err != nil {
			return err
		}
	}
	return nil
}

// SealedSet seals payload under every tenant key without touching a
// System: differential tests reuse one sealed set across fresh
// Systems so every leg submits the exact same bytes.
func SealedSet(seed int64, tenants int, payload []byte) (map[string][]byte, error) {
	out := make(map[string][]byte, tenants)
	for ti := 0; ti < tenants; ti++ {
		blob, err := snpu.SealModel(TenantKey(seed, ti), payload)
		if err != nil {
			return nil, err
		}
		out[TenantKeyID(ti)] = blob
	}
	return out, nil
}

// ProvisionTenants provisions keys for tenants 0..n-1 and seals a
// per-tenant payload under each, returning the sealed blobs keyed by
// TenantKeyID.
func ProvisionTenants(sys *snpu.System, seed int64, tenants int, payload func(ti int) []byte) (map[string][]byte, error) {
	if err := ProvisionKeys(sys, seed, tenants); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, tenants)
	for ti := 0; ti < tenants; ti++ {
		blob, err := snpu.SealModel(TenantKey(seed, ti), payload(ti))
		if err != nil {
			return nil, err
		}
		out[TenantKeyID(ti)] = blob
	}
	return out, nil
}

// AppendUint32 / AppendUint64 are the encoder duals of ByteSource's
// readers, for building corpus seeds that decode to a chosen scenario.
func AppendUint32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendUint64 appends v big-endian.
func AppendUint64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
