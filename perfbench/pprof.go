package main

// A minimal decoder for the gzipped profile.proto files runtime/pprof
// writes: just enough of the format (samples, locations with their inlined
// lines, functions, string table) to group CPU samples by package. The
// standard library can write profiles but not read them, and the benchmark
// must not depend on anything outside it.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// sample is one profile sample: its CPU nanoseconds and its stack as
// function names, leaf first.
type sample struct {
	ns    int64
	stack []string
}

// profileMsg holds the raw tables of one decoded profile.
type profileMsg struct {
	samples   []rawSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
	valueIdx  int // index of the "cpu nanoseconds" value
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped CPU profile into samples.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileMsg{
		locations: make(map[uint64][]uint64),
		functions: make(map[uint64]int64),
		valueIdx:  -1,
	}
	var sampleTypes [][]byte
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, b)
		case 2: // sample
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			return p.decodeLocation(b)
		case 5: // function
			return p.decodeFunction(b)
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The CPU profile's value types are (samples, count) and (cpu,
	// nanoseconds); pick the nanoseconds column by its unit.
	for i, st := range sampleTypes {
		var unit int64
		if err := eachField(st, func(field, _ int, v uint64, _ []byte) error {
			if field == 2 {
				unit = int64(v)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if unit >= 0 && unit < int64(len(p.strings)) && p.strings[unit] == "nanoseconds" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]sample, 0, len(p.samples))
	for _, rs := range p.samples {
		if p.valueIdx >= len(rs.values) {
			continue
		}
		s := sample{ns: rs.values[p.valueIdx]}
		for _, loc := range rs.locs {
			for _, fn := range p.locations[loc] {
				s.stack = append(s.stack, p.str(p.functions[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *profileMsg) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	err := eachField(b, func(field, wire int, v uint64, pb []byte) error {
		switch field {
		case 1:
			return appendUints(&s.locs, wire, v, pb)
		case 2:
			var vals []uint64
			if err := appendUints(&vals, wire, v, pb); err != nil {
				return err
			}
			for _, u := range vals {
				s.values = append(s.values, int64(u))
			}
		}
		return nil
	})
	return s, err
}

func (p *profileMsg) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(field, _ int, v uint64, lb []byte) error {
		switch field {
		case 1:
			id = v
		case 4: // line: function_id is field 1
			return eachField(lb, func(f, _ int, fv uint64, _ []byte) error {
				if f == 1 {
					fns = append(fns, fv)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = fns
	return err
}

func (p *profileMsg) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	err := eachField(b, func(field, _ int, v uint64, _ []byte) error {
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	p.functions[id] = name
	return err
}

// appendUints adds a repeated integer field's value(s): one varint, or a
// packed run of them.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, u)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited payload.
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
