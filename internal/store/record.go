package store

import (
	"fmt"
	"io"

	"webevolve/internal/seglog"
)

// EncodeRecord appends one PageRecord to e — the one record codec,
// shared by the disk store's segments and the store wire protocol. prev
// is the previous record's URL in the payload (the resume cursor for
// the first record of a chunk; "" when the record stands alone) — the
// URL is front-coded against it, and the links against the record's
// own URL, which same-site links usually extend. The checksum is a
// uniform 64-bit hash, so it stays fixed-width.
func EncodeRecord(e *seglog.Enc, prev string, r PageRecord) {
	e.StrDelta(prev, r.URL)
	e.Fix64(r.Checksum)
	e.F64(r.FetchedAt)
	e.U64(uint64(int64(r.Version)))
	e.Strings(r.URL, r.Links)
	e.Bytes(r.Content)
	e.F64(r.Importance)
}

// DecodeRecord is EncodeRecord's inverse. Empty Links and Content
// decode as nil, whichever of nil or empty was encoded.
func DecodeRecord(d *seglog.Dec, prev string) PageRecord {
	r := PageRecord{
		URL:       d.StrDelta(prev),
		Checksum:  d.Fix64(),
		FetchedAt: d.F64(),
		Version:   int(int64(d.U64())),
	}
	r.Links = d.Strings(r.URL)
	r.Content = d.Bytes()
	r.Importance = d.F64()
	return r
}

// A segment frame's payload is a kind byte and the URL, front-coded
// against "", so replay reads the key without decoding the record;
// a put then carries the rest of EncodeRecord's fields:
//
//	recPut  | EncodeRecord(prev "")
//	recTomb | StrDelta("", url)
const (
	recPut  = byte(1)
	recTomb = byte(2)
)

// appendFrame appends the segment frame of a put of r, or of a
// tombstone for r.URL, to buf. It fails on a record over
// seglog.MaxFrame, which no log could read back.
func appendFrame(buf []byte, r PageRecord, tomb bool) ([]byte, error) {
	start := len(buf)
	e := seglog.Enc{B: seglog.Reserve(buf)}
	if tomb {
		e.U8(recTomb).StrDelta("", r.URL)
	} else {
		e.U8(recPut)
		EncodeRecord(&e, "", r)
	}
	if err := seglog.Seal(e.B[start:]); err != nil {
		return buf, fmt.Errorf("store: %s: %w", r.URL, err)
	}
	return e.B, nil
}

// frameKey decodes the kind and URL of a segment payload.
func frameKey(p []byte) (url string, tomb bool, err error) {
	d := seglog.NewDec(p)
	kind, url := d.U8(), d.StrDelta("")
	switch kind {
	case recPut:
		return url, false, d.Finish()
	case recTomb:
		return url, true, d.End()
	}
	return "", false, fmt.Errorf("%w: record kind %d", seglog.ErrCorrupt, kind)
}

// readRecord reads and decodes the put frame at pos, which the index
// produced: any failure here is corruption (or a reader outliving its
// segment pin — a bug).
func readRecord(f io.ReaderAt, pos diskPos) (PageRecord, error) {
	p, err := seglog.ReadAt(f, pos.off, pos.n)
	if err == nil && (len(p) == 0 || p[0] != recPut) {
		err = fmt.Errorf("%w: not a put record", seglog.ErrCorrupt)
	}
	if err != nil {
		return PageRecord{}, fmt.Errorf("store: segment %d offset %d: %w", pos.seg, pos.off, err)
	}
	d := seglog.NewDec(p[1:])
	r := DecodeRecord(d, "")
	if err := d.End(); err != nil {
		return PageRecord{}, fmt.Errorf("store: segment %d offset %d: %w", pos.seg, pos.off, err)
	}
	return r, nil
}
