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

// cpuLayers are the buckets a CPU profile is folded into: the repo's
// packages, the standard-library groups the engines lean on, the Go
// collector, and the rest.
var cpuLayers = []string{
	"sim", "netsim", "heap", "runtime", "sched", "jobsched", "repair", "trace",
	"gf256", "erasure", "dfs", "minimr", "cluster", "json", "netpoll", "gc", "other",
}

// cpuShares folds a runtime/pprof CPU profile into cpuLayers, as shares
// of all samples that sum to 1; layerOf has the rules.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := make(map[string]float64, len(cpuLayers))
	total := 0.0
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		// One name per physical frame: the last line of a location is the
		// compiled function, the ones before it were inlined into it (a
		// gf256 kernel that inlines encoding/binary loads is still gf256).
		names := make([]string, 0, len(s.locations))
		for _, loc := range s.locations {
			if fns := p.locations[loc]; len(fns) > 0 {
				names = append(names, p.strings[p.functions[fns[len(fns)-1]]])
			}
		}
		if len(names) == 0 {
			continue
		}
		shares[layerOf(names)] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples (timed section too short)")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf names the bucket of one stack, leaf first. A leaf in a repo
// package counts for that package. container/heap, encoding/* and the
// socket path (net, syscall, internal/poll) are buckets of their own. A
// Go-runtime leaf with the collector or the allocator on its stack is
// "gc". Any other runtime or standard-library leaf (map access, memmove,
// bytes.Fields, sort) counts for the innermost repo package that called
// it, and for "other" when none did.
func layerOf(stack []string) string {
	switch pkg := goPackage(stack[0]); {
	case pkg == "container/heap":
		return "heap"
	case strings.HasPrefix(pkg, "encoding/"):
		return "json"
	case pkg == "net" || pkg == "syscall" || pkg == "internal/poll" || strings.HasPrefix(pkg, "internal/runtime/syscall"):
		return "netpoll"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		for _, fn := range stack {
			if isCollector(fn) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "degradedfirst/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	return "other"
}

// goPackage returns the import path of a symbol like
// "encoding/json.(*decodeState).object".
func goPackage(symbol string) string {
	slash := strings.LastIndex(symbol, "/")
	dot := strings.Index(symbol[slash+1:], ".")
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}

func isCollector(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.memclr", "runtime.scanobject", "runtime.greyobject", "runtime.markroot",
		"runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profile is the part of pprof's profile.proto the folding needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	functions map[uint64]int64    // function id -> name's string index
	strings   []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

// parseProfile reads the fields sample (2), location (4), function (5)
// and string_table (6) of a Profile message.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(body, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, packed)
				case 2:
					for _, u := range appendVarints(nil, v, packed) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(body, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint, or a packed run of them.
func appendVarints(dst []uint64, single uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, single)
	}
	for len(packed) > 0 {
		v, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		packed = packed[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with the field
// number and either its varint value (body nil) or its length-delimited
// body. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errors.New("truncated fixed field")
			}
			b = b[width:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			body := b[n : n+int(l) : n+int(l)] // empty but never nil: nil marks a varint field
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
