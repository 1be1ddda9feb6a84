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

// modulePrefix is the import path prefix of the program's packages.
const modulePrefix = "atcsched/internal/"

// layerOf maps the first path element under atcsched/internal to the
// layer the package belongs to. Every internal package has exactly one
// entry (TestEveryInternalPackageHasOneLayer).
var layerOf = map[string]string{
	"sim":         "sim",
	"vmm":         "vmm",
	"vmmtest":     "vmm",
	"sched":       "sched",
	"netmodel":    "netmodel",
	"cachemodel":  "cachemodel",
	"diskmodel":   "diskmodel",
	"workload":    "workload",
	"trace":       "workload",
	"core":        "core",
	"daemon":      "daemon",
	"telemetry":   "telemetry",
	"runner":      "runner",
	"cluster":     "cluster",
	"scenario":    "cluster",
	"fault":       "fault",
	"experiment":  "experiment",
	"report":      "experiment",
	"validate":    "experiment",
	"paperdata":   "experiment",
	"metrics":     "support",
	"rng":         "support",
	"proptest":    "testing",
	"integration": "testing",
}

// sharedLayers are the layers whose CPU share a traced pass reports.
var sharedLayers = []string{
	"sim", "vmm", "sched", "netmodel", "cachemodel", "diskmodel",
	"workload", "core", "daemon", "telemetry", "go", "bench",
}

// layerForFunc returns the layer of a profiled function name such as
// "atcsched/internal/sim.(*Engine).Step". Outside the program's
// internal packages, the benchmark's own code is "bench", the rest of
// the module "other", and the Go runtime and standard library "go".
func layerForFunc(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case !strings.HasPrefix(fn, modulePrefix):
		if strings.HasPrefix(fn, "atcsched") {
			return "other"
		}
		return "go"
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	if l, ok := layerOf[rest]; ok {
		return l
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time. A sample belongs to the layer
// of its innermost frame outside the Go runtime and standard library, so
// the allocation, map and channel work a layer's code calls is charged
// to that layer; "go" keeps the samples with no program frame at all,
// such as background garbage collection.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64 // leaf first
		v    int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var sm sample
			var vals []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					sm.locs = appendPacked(sm.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil || len(vals) == 0 {
				return err
			}
			sm.v = int64(vals[len(vals)-1])
			samples = append(samples, sm)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	layerOfFunc := func(id uint64) string {
		if idx, ok := funcName[id]; ok && idx < uint64(len(strs)) {
			return layerForFunc(strs[idx])
		}
		return "go"
	}
	byLayer := map[string]float64{}
	var total float64
	for _, sm := range samples {
		layer := "go"
	stack:
		for _, loc := range sm.locs {
			for _, fn := range locFuncs[loc] {
				if l := layerOfFunc(fn); l != "go" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += float64(sm.v)
		total += float64(sm.v)
	}
	if total > 0 {
		for l := range byLayer {
			byLayer[l] /= total
		}
	}
	return byLayer, nil
}

// appendPacked appends a repeated varint field that may be packed (b
// set) or a single unpacked value.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
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

var errProto = errors.New("malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// the varint value (wire type 0) or the bytes (wire type 2; non-nil).
func protoFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l) : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
