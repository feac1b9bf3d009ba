package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuRules map the simulator's hot functions to the CPU-share metrics.
// Each profile sample is charged to the innermost frame on its stack
// (inlined frames included) that a rule matches, so the shares are
// disjoint; samples no rule matches are not charged. README.md lists
// the same table.
var cpuRules = []struct {
	metric string
	match  func(fn string) bool
}{
	{"soc.span_cache_cpu_frac", anyOf("sysscale/internal/soc.(*SpanCache).lookup", "sysscale/internal/soc.(*SpanCache).insert")},
	{"soc.integrate_span_cpu_frac", anyOf("sysscale/internal/soc.(*Platform).integrateSpan")},
	{"soc.tick_eval_cpu_frac", anyOf("sysscale/internal/soc.(*Platform).tickEvalFor")},
	{"pmu.pbm_cpu_frac", anyOf("sysscale/internal/soc.(*Platform).applyPBM", "sysscale/internal/pmu.(*PBM).Apply")},
	{"policy.decide_cpu_frac", func(fn string) bool { return strings.HasSuffix(fn, ").Decide") }},
}

func anyOf(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
		return false
	}
}

// cpuShares attributes the CPU profiles at paths to the cpuRules and
// reports each rule's share of all CPU time sampled in them.
func cpuShares(paths []string, m map[string]metric) error {
	charged := make([]int64, len(cpuRules))
	var total int64
	for _, path := range paths {
		p, err := readProfile(path)
		if err != nil {
			return fmt.Errorf("CPU profile %s: %w", path, err)
		}
		for _, s := range p.samples {
			total += s.value
			rule := -1
		stack:
			for _, loc := range s.locs {
				for _, fn := range p.locFuncs[loc] {
					for r := range cpuRules {
						if cpuRules[r].match(p.funcNames[fn]) {
							rule = r
							break stack
						}
					}
				}
			}
			if rule >= 0 {
				charged[rule] += s.value
			}
		}
	}
	for r, rule := range cpuRules {
		m[rule.metric] = metric{frac(charged[r], total), "ratio"}
	}
	return nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string   // function id → name
}

type sample struct {
	locs  []uint64 // location ids, leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

// readProfile decodes a gzip-compressed profile.proto message, reading
// only the fields the attribution uses (field numbers from
// github.com/google/pprof/proto/profile.proto).
func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			var vals []uint64
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					vals = appendPacked(vals, v, d)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return fields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNameIdx {
		if si < uint64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked
// (v) or packed (data non-nil).
func appendPacked(xs []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(xs, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return xs
		}
		xs = append(xs, x)
		data = data[n:]
	}
	return xs
}

var errProto = errors.New("malformed protobuf")

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
