package main

import "repro/internal/sim"

// reference is the simulated cycle count of every paper-workload cell,
// recorded from the simulator and matching the Fig. 13(a) and Fig. 17
// tables in EXPERIMENTS.md. A cell that reads anything else fails its
// gate: host-side changes must leave simulated time untouched.
var reference = map[string]sim.Cycle{
	"fig13/googlenet/none":     23275126,
	"fig13/googlenet/iotlb-32": 26566234,
	"fig13/googlenet/guarder":  23275126,
	"fig13/alexnet/none":       29787899,
	"fig13/alexnet/iotlb-32":   36184092,
	"fig13/alexnet/guarder":    29787899,
	"fig13/yololite/none":      4804702,
	"fig13/yololite/iotlb-32":  5421765,
	"fig13/yololite/guarder":   4804702,
	"fig13/mobilenet/none":     12874118,
	"fig13/mobilenet/iotlb-32": 14329579,
	"fig13/mobilenet/guarder":  12874118,
	"fig13/resnet/none":        57125387,
	"fig13/resnet/iotlb-32":    63965471,
	"fig13/resnet/guarder":     57125387,
	"fig13/bert/none":          147827524,
	"fig13/bert/iotlb-32":      163171252,
	"fig13/bert/guarder":       147827524,

	"fig17/googlenet/unauthorized-noc": 6224144,
	"fig17/googlenet/peephole-noc":     6224144,
	"fig17/googlenet/software-noc":     7499942,
	"fig17/alexnet/unauthorized-noc":   7564895,
	"fig17/alexnet/peephole-noc":       7564895,
	"fig17/alexnet/software-noc":       7821246,
	"fig17/yololite/unauthorized-noc":  1588148,
	"fig17/yololite/peephole-noc":      1588148,
	"fig17/yololite/software-noc":      2208085,
	"fig17/mobilenet/unauthorized-noc": 3504593,
	"fig17/mobilenet/peephole-noc":     3504593,
	"fig17/mobilenet/software-noc":     5490727,
	"fig17/resnet/unauthorized-noc":    14200848,
	"fig17/resnet/peephole-noc":        14200848,
	"fig17/resnet/software-noc":        18407155,
	"fig17/bert/unauthorized-noc":      36305007,
	"fig17/bert/peephole-noc":          36305007,
	"fig17/bert/software-noc":          41729184,
}
