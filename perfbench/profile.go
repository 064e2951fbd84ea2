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

// CPU-profile attribution: the daemon cannot carry the benchmark's spans,
// so its time is split by the function names on each sampled stack. The
// gw.* shares are the share of the daemon's CPU each layer took.

// Profile classes.
const (
	classSyscall     = "syscall"     // time inside socket system calls
	classShell       = "shell"       // sailfish-gw's own loop, net and poll glue
	classNetpkt      = "netpkt"      // front parse and packet codecs
	classXGWH        = "xgwh"        // gateway, tofino model, table lookups
	classHeavyHitter = "heavyhitter" // heavy-hitter tracker
	classX86         = "xgw86"       // software path and SNAT
	classRuntime     = "runtime"     // GC, scheduler, allocator outside any layer
	classOther       = "other"       // everything else: observers, admin plane
)

// layerOfPkg maps a sailfish package to its profile class.
var layerOfPkg = map[string]string{
	"netpkt":      classNetpkt,
	"xgwh":        classXGWH,
	"tofino":      classXGWH,
	"tables":      classXGWH,
	"digest":      classXGWH,
	"alpm":        classXGWH,
	"mashup":      classXGWH,
	"lpmindex":    classXGWH,
	"heavyhitter": classHeavyHitter,
	"xgw86":       classX86,
	"snat":        classX86,
}

// classify attributes one stack (leaf first) to a class, the way the
// traced run's spans do: a system call anywhere on the stack wins;
// otherwise the outermost frame of a known layer does, so a lookup the
// gateway makes in netpkt or tables is gateway time, as it is inside the
// gateway's span. Stacks outside every layer fall to the daemon's socket
// shell, to the runtime when only runtime frames remain, or to other.
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
			strings.HasPrefix(fn, "runtime.entersyscall") || strings.HasPrefix(fn, "runtime.exitsyscall") {
			return classSyscall
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if rest, ok := strings.CutPrefix(stack[i], "sailfish/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if c, ok := layerOfPkg[pkg]; ok {
				return c
			}
		}
	}
	onlyRuntime := true
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main.(*server)."), strings.HasPrefix(fn, "main.vxlanPayload"),
			strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "internal/poll."):
			return classShell
		case !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/"):
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return classRuntime
	}
	return classOther
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// class's share of sampled CPU time, plus the sample count.
func profileShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	valueIdx := p.sampleTypes - 1 // cpu nanoseconds is the last value
	if valueIdx < 0 {
		return nil, 0, errors.New("profile: no sample types")
	}
	byClass := make(map[string]float64)
	var total float64
	var stack []string
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		v := float64(s.values[valueIdx])
		byClass[classify(stack)] += v
		total += v
	}
	if total == 0 {
		return nil, 0, errors.New("profile: no CPU samples")
	}
	for k := range byClass {
		byClass[k] /= total
	}
	return byClass, len(p.samples), nil
}

// The pprof wire format (profile.proto), decoded just far enough to walk
// sample stacks: samples → location ids → inlined function ids → names.

type rawSample struct {
	locs   []uint64
	values []int64
}

type rawProfile struct {
	sampleTypes int
	samples     []rawSample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcName    map[uint64]int64    // function id → string table index
	strings     []string
}

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s rawSample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					for _, u := range appendPacked(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, s := range p.funcName {
		if s < 0 || int(s) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, s, len(p.strings))
		}
	}
	return p, nil
}

// appendPacked appends a repeated integer field that may arrive either
// packed (one length-delimited run of varints) or one value per field.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// walkFields iterates the fields of one protobuf message. Varint and
// fixed fields arrive in v, length-delimited ones in data.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
