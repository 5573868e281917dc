package seglog

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

var (
	errShort = fmt.Errorf("%w: truncated body", ErrCorrupt)
	errBad   = fmt.Errorf("%w: malformed body", ErrCorrupt)
)

// Enc is an append-only payload encoder: uvarint u32/u64 fields,
// front-coded string lists, and fixed-width Fix64/F64 for values a
// varint would grow. B is the encoded payload.
type Enc struct {
	B []byte
}

func (e *Enc) U32(v uint32) *Enc { return e.U64(uint64(v)) }

func (e *Enc) U64(v uint64) *Enc {
	e.B = binary.AppendUvarint(e.B, v)
	return e
}

// Fix64 writes a fixed 8-byte little-endian value. Request IDs and page
// checksums are uniformly random 64-bit values, so a uvarint would
// *grow* them (9.2 bytes on average).
func (e *Enc) Fix64(v uint64) *Enc {
	e.B = binary.LittleEndian.AppendUint64(e.B, v)
	return e
}

func (e *Enc) U8(v byte) *Enc {
	e.B = append(e.B, v)
	return e
}

func (e *Enc) F64(v float64) *Enc { return e.Fix64(math.Float64bits(v)) }

func (e *Enc) Bool(v bool) *Enc {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
	return e
}

func (e *Enc) Str(s string) *Enc {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
	return e
}

// StrDelta appends s front-coded against prev: the length of the shared
// prefix, the suffix length, then the suffix bytes. URL lists travel
// sorted (per shard, per scan chunk), so consecutive entries share long
// prefixes and the shared part costs one or two bytes instead of being
// resent.
func (e *Enc) StrDelta(prev, s string) *Enc {
	shared := commonPrefixLen(prev, s)
	e.U64(uint64(shared)).U64(uint64(len(s) - shared))
	e.B = append(e.B, s[shared:]...)
	return e
}

// Bytes appends a length-prefixed byte slice without an intermediate
// string copy (page bodies ride the hot put/get/scan paths).
func (e *Enc) Bytes(b []byte) *Enc {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
	return e
}

// Strings appends a counted string list, front-coding each element
// against its predecessor. prev seeds the first element's
// front-coding — both sides must agree on it (the empty string, or a
// resume cursor both already know).
func (e *Enc) Strings(prev string, list []string) {
	e.U32(uint32(len(list)))
	for _, s := range list {
		e.StrDelta(prev, s)
		prev = s
	}
}

func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Dec is a cursor-based payload decoder (Enc's inverse); the first
// malformed field poisons it with an error wrapping ErrCorrupt, and
// every later read returns the zero value.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over body.
func NewDec(body []byte) *Dec { return &Dec{b: body} }

// Len is the length of the whole body, decoded or not.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.err = errShort
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *Dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errShort
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) U32() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.err = errBad
		return 0
	}
	return uint32(v)
}

func (d *Dec) U64() uint64 { return d.uvarint() }

// Fix64 reads a fixed 8-byte value (Enc.Fix64's inverse).
func (d *Dec) Fix64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.Fix64()) }

func (d *Dec) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

func (d *Dec) Str() string { return string(d.take(int(d.U32()))) }

// StrDelta decodes a front-coded string against prev (Enc.StrDelta's
// inverse). A prefix length exceeding len(prev) poisons the decoder: it
// can only come from a corrupt or hostile frame.
func (d *Dec) StrDelta(prev string) string {
	shared := d.uvarint()
	if d.err != nil || shared > uint64(len(prev)) {
		d.err = errBad
		return ""
	}
	suffix := d.take(int(min(d.uvarint(), math.MaxInt32)))
	if d.err != nil || shared == 0 {
		return string(suffix)
	}
	var sb strings.Builder
	sb.Grow(int(shared) + len(suffix))
	sb.WriteString(prev[:shared])
	sb.Write(suffix)
	return sb.String()
}

// Bytes decodes a length-prefixed byte slice with exactly one copy
// (never retaining the frame buffer); empty decodes as nil.
func (d *Dec) Bytes() []byte {
	if b := d.take(int(d.U32())); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// Strings decodes a counted string list (Enc.Strings's inverse). An
// empty list decodes as nil.
func (d *Dec) Strings(prev string) []string {
	n := int(d.U32())
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(n, 1<<16))
	for i := 0; i < n && d.Finish() == nil; i++ {
		s := d.StrDelta(prev)
		if d.Finish() == nil {
			out = append(out, s)
			prev = s
		}
	}
	return out
}

// Finish reports a decoding error, if any.
func (d *Dec) Finish() error { return d.err }

// End is Finish for a payload that must be consumed exactly: bytes
// left over after the last field are corruption too.
func (d *Dec) End() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return d.err
}
