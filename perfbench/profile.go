package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto). It keeps only what self-time attribution needs: each
// sample's stack of locations, each location's (possibly inlined) lines and
// each function's name.

// cpuLayers are the modules that get a <layer>.cpu_frac metric. "runtime"
// is the Go runtime (allocation, GC, scheduling) and "other" everything
// else: the standard library and the benchmark itself.
var cpuLayers = []string{
	"bench", "baseline", "core", "xkrt", "cache", "policy", "sim",
	"topology", "device", "hostblas", "matrix", "serve", "runtime", "other",
}

// cpuProfile aggregates one or more parsed profiles.
type cpuProfile struct {
	total   int64
	selfFn  map[string]int64 // function → self weight, inlined frames folded into their caller
	cumFn   map[string]int64 // function → weight of samples with it anywhere on the stack
	selfPkg map[string]int64
}

func readProfiles(paths []string) (*cpuProfile, error) {
	p := &cpuProfile{selfFn: map[string]int64{}, cumFn: map[string]int64{}, selfPkg: map[string]int64{}}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		err = p.add(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return p, nil
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	fnID            = 1
	fnName          = 2
)

type rawSample struct {
	locs   []uint64
	values []int64
}

func (p *cpuProfile) add(r io.Reader) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		fnNames = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profSample:
			var s rawSample
			err := eachField(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case sampleLocation:
					s.locs = appendVarints(s.locs, wt, v, b)
				case sampleValue:
					for _, x := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return eachField(b, func(f int, wt int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(f int, wt int, v uint64, _ []byte) error {
				switch f {
				case fnID:
					id = v
				case fnName:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := func(fn uint64) string {
		i := fnNames[fn]
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		w := s.values[len(s.values)-1] // cpu nanoseconds
		p.total += w
		// Self time goes to the outermost function of the leaf location:
		// the frames before it were inlined into it.
		if leaf := locs[s.locs[0]]; len(leaf) > 0 {
			fn := name(leaf[len(leaf)-1])
			p.selfFn[fn] += w
			p.selfPkg[pkgOf(fn)] += w
		}
		seen := map[string]bool{}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				fn := name(f)
				if !seen[fn] {
					seen[fn] = true
					p.cumFn[fn] += w
				}
			}
		}
	}
	return nil
}

// pkgOf returns a function's import path: "xkblas/internal/cache" for
// "xkblas/internal/cache.(*Cache).evict".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path onto a cpuLayers entry.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "xkblas/internal/"); ok {
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	// Assembly helpers of the runtime (aeshashbody, memeqbody) have no
	// package qualifier.
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		!strings.ContainsAny(pkg, "./") {
		return "runtime"
	}
	return "other"
}

func (p *cpuProfile) layerFrac(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	var w int64
	for pkg, v := range p.selfPkg {
		if layerOf(pkg) == layer {
			w += v
		}
	}
	return float64(w) / float64(p.total)
}

func (p *cpuProfile) cumFrac(fn string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.cumFn[fn]) / float64(p.total)
}

// table renders the package self-time table and the top functions.
func (p *cpuProfile) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPU self time by package (inlined frames counted in their caller), %.2f s sampled\n", float64(p.total)/1e9)
	writeTop(&b, p.selfPkg, p.total, len(p.selfPkg))
	fmt.Fprintf(&b, "\nTop functions by self time\n")
	writeTop(&b, p.selfFn, p.total, 30)
	fmt.Fprintf(&b, "\nTop functions by cumulative time\n")
	writeTop(&b, p.cumFn, p.total, 30)
	return b.String()
}

func writeTop(b *strings.Builder, m map[string]int64, total int64, n int) {
	type kv struct {
		k string
		v int64
	}
	var rows []kv
	for k, v := range m {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	for i, r := range rows {
		if i == n {
			break
		}
		fmt.Fprintf(b, "%6.2f%% %9.3fs  %s\n", 100*float64(r.v)/float64(max(total, 1)), float64(r.v)/1e9, r.k)
	}
}

// eachField walks the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	r := bytes.NewReader(b)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			break
		}
		dst = append(dst, x)
	}
	return dst
}
