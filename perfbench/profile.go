package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerProfile is a CPU profile bucketed by layer. Self time goes to
// the innermost repro/internal/<pkg> frame of each sample, so runtime
// frames (map access, allocation) count toward their nearest repro
// caller; cumulative time counts every layer anywhere on the stack.
// Samples with no repro frame go to "bench" when the benchmark's own
// code is on the stack and to "go" otherwise (GC workers, scheduler).
type layerProfile struct {
	self, cum map[string]float64 // nanoseconds
	raw       []byte
}

const internalPrefix = "repro/internal/"

// layerOf maps a function name to its layer, or "" outside the repo.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		rest := fn[len(internalPrefix):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "repro."):
		return "snpu"
	}
	return ""
}

// bucketProfile decodes a gzipped pprof CPU profile and buckets its
// CPU time by layer.
func bucketProfile(raw []byte) (*layerProfile, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	lp := &layerProfile{self: map[string]float64{}, cum: map[string]float64{}, raw: raw}
	valueIdx := p.sampleTypes - 1 // CPU profiles list [samples, cpu-ns]
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		ns := float64(s.values[valueIdx])
		self, bench := "", false
		seen := map[string]bool{}
		for _, locID := range s.locations {
			for _, fnID := range p.locations[locID] {
				name := p.strings[p.functions[fnID]]
				if strings.HasPrefix(name, "main.") {
					bench = true
				}
				layer := layerOf(name)
				if layer == "" {
					continue
				}
				if self == "" {
					self = layer
				}
				if !seen[layer] {
					seen[layer] = true
					lp.cum[layer] += ns
				}
			}
		}
		switch {
		case self != "":
		case bench:
			self = "bench"
		default:
			self = "go"
		}
		lp.self[self] += ns
	}
	return lp, nil
}

// profile holds the parts of a pprof profile the bucketing needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locations   map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions   map[uint64]int64    // function ID -> name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses the subset of profile.proto (github.com/google/
// pprof/proto/profile.proto) that runtime/pprof writes for CPU
// profiles: sample types, samples, locations with their lines,
// functions and the string table.
func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = fields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locations = appendVarints(s.locations, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, fns := range p.locations {
		for _, fn := range fns {
			if idx := p.functions[fn]; idx < 0 || int(idx) >= len(p.strings) {
				return nil, errors.New("profile: function name out of range")
			}
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value v) or packed (varints in b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
