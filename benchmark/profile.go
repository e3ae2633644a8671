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

// modulePrefix marks the simulator's own packages in function names.
const modulePrefix = "flexmap/internal/"

// moduleSamples decodes a gzipped profile.proto CPU profile, as
// runtime/pprof writes it, and counts its samples by module. A sample
// counts for the innermost frame that lies in a flexmap/internal/<module>
// package, so a map or sort call counts for the layer that made it.
// Samples with no such frame count as "gc" when the garbage collector's
// background workers took them and as "other" otherwise.
func moduleSamples(gz []byte) (map[string]int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		out[frameModule(frames)] += int(s.count)
	}
	return out, nil
}

// frameModule names the module a stack's time counts for; frames run
// from the innermost outwards.
func frameModule(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	return "other"
}

// profile holds the parts of profile.proto that moduleSamples reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID → function IDs, innermost first
	functions map[uint64]int64    // function ID → name's string-table index
	strings   []string
}

type sample struct {
	locations []uint64 // innermost first
	count     int64    // the first value: the number of samples
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	profileSample   = 2
	profileLocation = 4
	profileFunction = 5
	profileStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(buf []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(buf, func(num int, v uint64, data []byte) error {
		switch num {
		case profileSample:
			var s sample
			var values []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				var err error
				switch num {
				case sampleLocation:
					s.locations, err = appendVarints(s.locations, v, data)
				case sampleValue:
					values, err = appendVarints(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive as v,
// length-delimited fields as data; fixed-width fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(buf) < size {
				return errTruncated
			}
			buf = buf[size:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			data, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, whether
// encoded one per field (v) or packed (data).
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
