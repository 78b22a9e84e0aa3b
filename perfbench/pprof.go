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

// The engine packages are reached only beneath public calls, so their
// cost is attributed from a CPU profile: each sample's CPU time goes to
// the package of its leaf frame. runtime/pprof writes the gzipped
// protocol-buffer form of profile.proto; the standard library has no
// reader for it, so this file decodes the few fields attribution needs.

// profile.proto field numbers used here.
const (
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// cpuByPackage decodes a pprof profile (gzipped or not) and sums the last
// sample value — CPU nanoseconds in a Go CPU profile — by the package of
// each sample's leaf function. Inlined frames count as the function they
// were inlined from, as pprof itself reports them.
func cpuByPackage(data []byte) (map[string]int64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %v", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %v", err)
		}
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string table index
		strs     []string
	)
	err := forEachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			var values []int64
			err := forEachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocationID:
					ids, err := varints(wire, v, b)
					if err != nil {
						return err
					}
					if len(ids) > 0 && s.leaf == 0 {
						s.leaf = ids[0]
					}
				case fSampleValue:
					vs, err := varints(wire, v, b)
					if err != nil {
						return err
					}
					for _, x := range vs {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			samples = append(samples, s)
		case fProfileLocation:
			var id, fn uint64
			err := forEachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					// The first line is the innermost inlined call: the leaf.
					if fn != 0 {
						return nil
					}
					return forEachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == fLineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case fProfileFunction:
			var id uint64
			var name int64
			err := forEachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case fProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		out[packageOf(name)] += s.value
	}
	return out, nil
}

// packageOf returns the import path of a Go symbol name such as
// "multicore/internal/sim.(*Engine).Run" or "runtime.mallocgc", or
// "unknown" for an empty name.
func packageOf(symbol string) string {
	if symbol == "" {
		return "unknown"
	}
	// Type arguments can hold further import paths; drop them first.
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndexByte(symbol, '/')
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protocol buffer")

// forEachField walks the top-level fields of one encoded message. For
// varint fields fn gets the value in v; for length-delimited fields the
// payload in b. Fixed-width fields are skipped.
func forEachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case wireBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case wire64:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case wire32:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, which encoders write either
// packed (one length-delimited run) or as separate varint fields.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == wireVarint {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
