package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads just enough of a runtime/pprof CPU profile (gzipped
// profile.proto) to attribute each sample to its leaf function, so the
// benchmark needs neither `go tool pprof` nor a module dependency.
//
// Fields used:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (value[0] = sample count)
//	Location: 1 id, 4 line (line[0] is the innermost inlined frame)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)

// protoField is one decoded field: a varint value or a length-delimited
// payload.
type protoField struct {
	num   int
	wire  int
	val   uint64
	bytes []byte
}

var errProto = errors.New("malformed profile")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// readFields splits one message into its fields.
func readFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			var n uint64
			if n, b, err = readVarint(b); err != nil {
				return err
			}
			if n > uint64(len(b)) {
				return errProto
			}
			f.bytes, b = b[:n], b[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints reads a repeated integer field in either encoding:
// packed (one length-delimited run) or one varint per occurrence.
func repeatedVarints(f protoField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}

// leafSamples returns sample counts keyed by leaf function name.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]uint64{} // function id -> string index
		strs     []string
	)
	err = readFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var locs, vals []uint64
			if err := readFields(f.bytes, func(sf protoField) (err error) {
				switch sf.num {
				case 1:
					locs, err = repeatedVarints(sf, locs)
				case 2:
					vals, err = repeatedVarints(sf, vals)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
		case 4: // location
			var id, fn uint64
			seenLine := false
			if err := readFields(f.bytes, func(lf protoField) error {
				switch {
				case lf.num == 1:
					id = lf.val
				case lf.num == 4 && !seenLine:
					seenLine = true
					return readFields(lf.bytes, func(ln protoField) error {
						if ln.num == 1 {
							fn = ln.val
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			if err := readFields(f.bytes, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// layerOf maps a function name to the benchmark's layer: the repo's
// internal/<pkg> as <pkg>, the Go runtime (scheduler, allocator, GC,
// memmove) as go_runtime, math/rand as math_rand, anything else "other".
func layerOf(fn string) string {
	const internal = "compilegate/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "math/rand"):
		return "math_rand"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "internal/bytealg."):
		return "go_runtime"
	}
	return "other"
}

// layerShares folds leaf samples into per-layer shares of all samples.
func layerShares(byFunc map[string]int64) (shares map[string]float64, total int64) {
	byLayer := map[string]int64{}
	for fn, n := range byFunc {
		byLayer[layerOf(fn)] += n
		total += n
	}
	shares = make(map[string]float64, len(byLayer))
	for layer, n := range byLayer {
		shares[layer] = ratio(float64(n), float64(total))
	}
	return shares, total
}
