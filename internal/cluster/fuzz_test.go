package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/seglog"
)

// validFrame builds a well-formed frame for seeding the fuzzers.
func validFrame(t testing.TB, kind byte, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, kind, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixLieBody builds a push-batch body whose single front-coded
// entry claims a 64-byte shared prefix against an empty previous URL.
func prefixLieBody(reqID uint64) []byte {
	var e seglog.Enc
	e.Fix64(reqID)
	e.U64(1)   // one entry
	e.U64(64)  // shared prefix longer than prev ("")
	e.U64(0)   // empty suffix
	e.Fix64(0) // due
	e.Fix64(0) // priority
	return e.B
}

// rawFrame assembles a frame with a correct length prefix and CRC but
// arbitrary payload bytes — for corpora whose corruption lives *below*
// the checksum (bad flags, lying compression headers), which a
// CRC-valid frame must still reject.
func rawFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// FuzzDecodeFrame throws arbitrary byte streams at the frame reader
// and, when a frame decodes, at the request handler: truncated frames,
// flipped bits, oversized lengths, truncated varints, front-coding
// lies, hostile compression headers, frames of other protocol versions
// and unknown ops must all surface as errors (or error responses),
// never as panics or hangs.
func FuzzDecodeFrame(f *testing.F) {
	var push seglog.Enc
	push.Fix64(7).Str("http://site001.com/a").F64(1).F64(2)
	f.Add(validFrame(f, opPush, push.B))
	var batch seglog.Enc
	batch.Fix64(8)
	encodeEntries(&batch, []frontier.Entry{
		{URL: "http://site001.com/a", Due: 1},
		{URL: "http://site001.com/b", Due: 2, Priority: 1},
	})
	f.Add(validFrame(f, opPushBatch, batch.B))
	var hello seglog.Enc
	hello.Bool(true).F64(0.5).Bool(true)
	f.Add(validFrame(f, opHello, hello.B))
	var quietHello seglog.Enc
	quietHello.Bool(false).Bool(false)
	f.Add(validFrame(f, opHello, quietHello.B))
	f.Add(validFrame(f, opLen, nil))
	f.Add(validFrame(f, 0xEE, []byte("unknown op")))
	var round seglog.Enc
	round.Fix64(14)
	round.Strings("", []string{"http://site001.com/a"})
	round.Strings("", nil)
	encodeEntries(&round, []frontier.Entry{{URL: "http://site001.com/b", Due: 3}})
	round.U32(8)
	f.Add(validFrame(f, opRound, round.B))
	var export seglog.Enc
	export.Fix64(15).U32(1024).U32(2).U32(3).U32(700).Str("").U32(16)
	f.Add(validFrame(f, opShardExport, export.B))

	// A compressed frame (body above compressMin so writeFrame deflates).
	var big seglog.Enc
	big.Fix64(9)
	var ents []frontier.Entry
	for i := 0; i < 64; i++ {
		ents = append(ents, frontier.Entry{URL: "http://site000.com/page/000000000000", Due: float64(i)})
	}
	encodeEntries(&big, ents)
	f.Add(validFrame(f, opPushBatch, big.B))

	whole := validFrame(f, opPush, []byte("x"))
	// Truncated frame.
	f.Add(whole[:len(whole)-3])
	// Flipped payload byte (CRC must object).
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	// Oversized length prefix.
	huge := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(huge[0:4], maxFrame+1)
	f.Add(huge)

	// Truncated varint: a body ending mid-uvarint (0x80 promises a
	// continuation byte that never comes).
	f.Add(rawFrame([]byte{ProtoVersion, opLen, 0, 0x80}))
	// Front-coding lie: shared-prefix-len 200 against an empty previous
	// URL inside a push-batch entry.
	f.Add(rawFrame(append([]byte{ProtoVersion, opPushBatch, 0}, prefixLieBody(10)...)))
	// Unknown flag bits set.
	f.Add(rawFrame([]byte{ProtoVersion, opLen, 0xFE}))
	// Compressed body declaring an inflated size past maxFrame.
	var lying bytes.Buffer
	lying.Write([]byte{ProtoVersion, opLen, flagCompressed})
	var hdr [binary.MaxVarintLen64]byte
	lying.Write(hdr[:binary.PutUvarint(hdr[:], maxFrame+1)])
	f.Add(rawFrame(lying.Bytes()))
	// Compressed body whose stream inflates to less than it declares.
	var short bytes.Buffer
	short.Write([]byte{ProtoVersion, opLen, flagCompressed})
	deflateBody(&short, []byte("tiny"))
	b := short.Bytes()
	b[3] = 0x60 // declare 96 inflated bytes; the stream holds 4
	f.Add(rawFrame(b))
	// Intact frames of an older and a newer protocol version.
	f.Add(rawFrame([]byte{ProtoVersion - 1, opLen, 0}))
	f.Add(rawFrame([]byte{ProtoVersion + 1, opLen, 0}))

	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, _, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		srv := NewShardServer(frontier.NewSharded(2))
		status, resp := srv.handle(kind, body)
		if status != statusOK && status != statusError {
			t.Fatalf("handle returned status %d (resp %q)", status, resp)
		}
	})
}

// FuzzHandleBody drives every opcode with arbitrary bodies directly:
// the decode layer's poisoning must turn any malformed body into an
// error response, not a panic.
func FuzzHandleBody(f *testing.F) {
	var push seglog.Enc
	push.Fix64(9).Str("http://site001.com/a").F64(1).F64(2)
	f.Add(opPush, push.B)
	var batch seglog.Enc
	batch.Fix64(10)
	encodeEntries(&batch, []frontier.Entry{
		{URL: "http://site001.com/a", Due: 1},
		{URL: "http://site002.com/b", Due: 2, Priority: 1},
	})
	f.Add(opPushBatch, batch.B)
	// Batch claiming 4 billion entries with a 30-byte body.
	var lying seglog.Enc
	lying.Fix64(11).U32(0xFFFFFFFF).Str("http://site001.com/a")
	f.Add(opPushBatch, lying.B)
	var pop seglog.Enc
	pop.Fix64(12).F64(3)
	f.Add(opPopDue, pop.B)
	f.Add(opClaimDue, pop.B)
	f.Add(opRelease, []byte{1, 2, 3})
	f.Add(opHello, []byte{1})
	f.Add(byte(0xEE), []byte("unknown"))
	f.Add(opRemove, []byte{})
	// Truncated uvarint count.
	f.Add(opPushBatch, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0x80})
	// Front-coded entry whose shared prefix exceeds the previous URL.
	f.Add(opPushBatch, prefixLieBody(13))
	var head seglog.Enc
	head.F64(3).Bool(true)
	f.Add(opHeadDue, head.B)
	var release seglog.Enc
	release.Fix64(14).U32(1).F64(4)
	f.Add(opRelease, release.B)
	var round seglog.Enc
	round.Fix64(15)
	round.Strings("", []string{"http://site001.com/a"})
	round.Strings("", []string{"http://site002.com/b"})
	encodeEntries(&round, []frontier.Entry{{URL: "http://site001.com/c", Due: 5}})
	round.U32(4)
	f.Add(opRound, round.B)
	// Export of three partitions out of 1024, chunked after a cursor.
	var export seglog.Enc
	export.Fix64(16).U32(1024).U32(3).U32(1).U32(2).U32(3).Str("http://site001.com/a").U32(8)
	f.Add(opShardExport, export.B)
	// Import of one entry plus one dedup pair.
	var imp seglog.Enc
	imp.Fix64(17)
	encodeEntries(&imp, []frontier.Entry{{URL: "http://site003.com/a", Due: 6}})
	imp.U32(1).Fix64(99).U8(statusOK).Bytes([]byte{1})
	f.Add(opShardImport, imp.B)

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		srv := NewShardServer(frontier.NewSharded(2))
		status, resp := srv.handle(op, body)
		if status != statusOK && status != statusError {
			t.Fatalf("handle(%d) returned status %d (resp %q)", op, status, resp)
		}
	})
}

// TestCorruptionTable pins the corruption cases the fuzzers seed, so
// the contract is enforced even in runs that skip fuzzing.
func TestCorruptionTable(t *testing.T) {
	var push seglog.Enc
	push.Fix64(7).Str("http://site001.com/a").F64(1).F64(2)
	whole := validFrame(t, opPush, push.B)

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(whole); cut++ {
			if _, _, _, err := readFrame(bytes.NewReader(whole[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		b := append([]byte(nil), whole...)
		binary.LittleEndian.PutUint32(b[0:4], maxFrame+1)
		if _, _, _, err := readFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("oversized length accepted")
		}
	})
	t.Run("unknown flag bits", func(t *testing.T) {
		b := rawFrame([]byte{ProtoVersion, opLen, 0xFE})
		if _, _, _, err := readFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("unknown flag bits accepted")
		}
	})
	t.Run("compressed size past maxFrame", func(t *testing.T) {
		var p bytes.Buffer
		p.Write([]byte{ProtoVersion, opLen, flagCompressed})
		var hdr [binary.MaxVarintLen64]byte
		p.Write(hdr[:binary.PutUvarint(hdr[:], maxFrame+1)])
		if _, _, _, err := readFrame(bytes.NewReader(rawFrame(p.Bytes()))); err == nil {
			t.Fatal("compressed body declaring >maxFrame accepted")
		}
	})
	t.Run("compressed size mismatch", func(t *testing.T) {
		var p bytes.Buffer
		p.Write([]byte{ProtoVersion, opLen, flagCompressed})
		deflateBody(&p, []byte("tiny"))
		b := p.Bytes()
		b[3] = 0x60 // declare 96 inflated bytes; the stream holds 4
		if _, _, _, err := readFrame(bytes.NewReader(rawFrame(b))); err == nil {
			t.Fatal("inflated-size mismatch accepted")
		}
	})
	t.Run("unknown op", func(t *testing.T) {
		srv := NewShardServer(frontier.NewSharded(2))
		if status, _ := srv.handle(0xEE, nil); status != statusError {
			t.Fatalf("unknown op status %d, want error", status)
		}
	})
	t.Run("mutating op without request id", func(t *testing.T) {
		srv := NewShardServer(frontier.NewSharded(2))
		if status, _ := srv.handle(opPush, []byte{1, 2}); status != statusError {
			t.Fatalf("short mutating body status %d, want error", status)
		}
	})
	t.Run("front-coding prefix lie", func(t *testing.T) {
		srv := NewShardServer(frontier.NewSharded(2))
		if status, _ := srv.handle(opPushBatch, prefixLieBody(13)); status != statusError {
			t.Fatalf("prefix lie status %d, want error", status)
		}
		if n := srv.Shards().Len(); n != 0 {
			t.Fatalf("prefix lie half-applied: %d entries", n)
		}
	})
}
