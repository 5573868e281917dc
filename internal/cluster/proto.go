// Package cluster gives the sharded frontier a serialization boundary,
// so shards can live on other machines: a compact length-prefixed,
// CRC-framed wire protocol at a single version (ProtoVersion) for the
// frontier.ShardSet operations, a ShardServer that hosts a set of in-process shards
// behind any net.Listener, and a RemoteShards client that implements
// frontier.ShardSet over one or more servers — so core.Crawler,
// core.UpdatePipeline and cmd/webcrawl run unchanged whether their
// shards are local or distributed (the paper's Figure 12 anticipates
// exactly this: "multiple CrawlModules may run in parallel").
//
// Distributed pops stay globally deterministic: RemoteShards asks every
// server for its earliest poppable head (OpHeadDue), picks the global
// minimum with the in-process comparator, and commits the pop on the
// winning server (OpPopDueMatch), retrying if the head moved — the same
// scan-then-revalidate dance frontier.Sharded performs over its
// in-process shards. A simulated crawl through RemoteShards is
// therefore bit-identical to the same crawl with local shards.
package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"webevolve/internal/seglog"
)

// ProtoVersion is the one wire protocol version this build speaks, on
// the network and in the shard server's WAL and snapshots alike. Every
// peer of a cluster is built from one tree, so there is no negotiation:
// readFrame refuses a frame of any other version with a *versionError,
// a server answers such a frame with a statusError naming both
// versions before closing the connection, and OpenWAL refuses a log or
// snapshot written by another build instead of mistaking it for a torn
// tail. Its body encoding uses varint u32/u64 fields, front-coded
// string lists and a per-frame flags byte with an optional
// deflate-compressed body.
const ProtoVersion = 6

// maxFrame bounds a frame payload (seglog's one cap on every log
// record); anything larger is treated as a corrupt or hostile stream.
// A compressed body must also declare an inflated size within this
// bound.
const maxFrame = seglog.MaxFrame

// A frame is one seglog frame (length, CRC, payload) whose payload is
//
//	version uint8 | kind uint8 | flags uint8 | body
//
// For requests, kind is the opcode; for responses it is a status
// (statusOK with an op-specific body, or statusError with a message).
// flags bit 0 set means the body is deflate-compressed, prefixed with
// its inflated length as a uvarint; all other flag bits must be zero.
const (
	opHello byte = iota + 1
	opPush
	opPopDue
	opClaimDue
	opHeadDue
	opPopDueMatch
	opRelease
	opRemove
	opContains
	opLen
	opURLs
	opPeek
	opNextEvent
	opStats
	opReset
	opPushBatch
	// opRound applies one crawl-engine dispatch round — pops, removes,
	// pushes — and returns the server's next pop candidates, all in a
	// single round trip (frontier.Sharded.ApplyRound on the wire).
	opRound
	// opShardExport extracts and returns every queued entry
	// whose site falls in the requested ring partitions, plus a capped
	// tail of the server's request-dedup cache — the source half of a
	// live shard migration. opShardImport installs exported entries and
	// dedup pairs on the new owner. Both are mutating (WAL-logged,
	// request-ID memoized), so a migration survives server restarts and
	// client retries like any other frontier mutation.
	opShardExport
	opShardImport
)

// The repository-store op family, served by StoreServer
// (the storerd daemon): store.Collection over the wire, with named
// collections so one server hosts a crawler's whole collection pair
// (shadow generations included). Numbered from 0x20 to leave the
// frontier family room to grow.
const (
	opStoreHello byte = 0x20 + iota
	opStorePutBatch
	opStoreGet
	opStoreDelete
	opStoreLen
	opStoreURLs
	opStoreScan
	// opStoreDrop closes a named collection and removes its backing
	// data — how a retired shadow generation is reclaimed.
	opStoreDrop
	// opStoreReset drops every collection: sequential experiments over
	// one store server each start from empty.
	opStoreReset
	// opStoreList returns the collection names on the server, open or
	// on disk — how a mounting crawler finds (and reclaims) shadow
	// generations a crashed predecessor left behind.
	opStoreList
)

// storeHelloMagic is opStoreHello's response body: it proves the peer
// is a store server, so a -store-server flag pointed at a shardd (or
// vice versa) fails loudly at connect instead of corrupting a crawl.
const storeHelloMagic = 0x53544F52 // "STOR"

// storeMutatingOp reports whether a store op changes collection state.
// Mutating store ops carry a leading client-generated request ID and
// are memoized by the store server, mirroring mutatingOp for the
// frontier family (they are deliberately separate predicates: the
// frontier WAL replays only frontier mutations).
func storeMutatingOp(op byte) bool {
	switch op {
	case opStorePutBatch, opStoreDelete, opStoreDrop, opStoreReset:
		return true
	}
	return false
}

// mutatingOp reports whether op changes frontier state. Mutating ops
// carry a leading client-generated request ID (a fixed 8-byte field,
// see seglog.Enc.Fix64): the server logs them to its WAL (when enabled) and
// memoizes their responses in a bounded cache keyed by that ID, so a
// client retrying after a broken connection gets the original response
// instead of a second application — exactly-once semantics over an
// at-least-once transport. Read-only ops carry no ID and are never
// logged.
func mutatingOp(op byte) bool {
	switch op {
	case opPush, opPushBatch, opPopDue, opClaimDue, opPopDueMatch,
		opRelease, opRemove, opReset, opRound, opShardExport, opShardImport:
		return true
	}
	return false
}

const (
	statusOK byte = iota
	statusError
)

// errBadFrame is a CRC-valid frame whose payload is not a frame of
// this protocol.
var errBadFrame = fmt.Errorf("%w: bad payload header", seglog.ErrCorrupt)

// versionError is readFrame's error for an intact frame (length and
// CRC valid) tagged with a protocol version other than ProtoVersion:
// a peer or a log from another build, never a torn write.
type versionError struct{ got byte }

func (e *versionError) Error() string {
	return fmt.Sprintf("cluster: protocol version %d, this build speaks only version %d", e.got, ProtoVersion)
}

// frameBufPool recycles writeFrame's assembly buffers: the hot paths
// (engine apply rounds, WAL appends, worker claims) write a frame per
// operation, and the buffer never escapes the write call. Oversized
// buffers (a compaction snapshot chunk, a huge push batch) are not
// returned, so one large frame cannot pin maxFrame-sized memory behind
// the pool while typical frames are a few hundred bytes.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// frameBufPoolMax caps the capacity of buffers returned to the pool.
const frameBufPoolMax = 64 << 10

// compressMin is the body size below which writeFrame does not attempt
// compression: small frames are dominated by syscall and header cost,
// and deflate rarely wins on them anyway.
const compressMin = 1 << 9

// flateWriterPool / flateReaderPool recycle deflate state, which is
// expensive to allocate (32KiB windows) relative to the frames it
// compresses. compressBufPool holds the intermediate compressed-body
// buffers; like frameBufPool, oversized ones are dropped.
var (
	flateWriterPool = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	}}
	flateReaderPool sync.Pool
	compressBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

const compressBufPoolMax = 1 << 20

func putCompressBuf(buf *bytes.Buffer) {
	if buf.Cap() <= compressBufPoolMax {
		compressBufPool.Put(buf)
	}
}

// deflateBody compresses body into buf as uvarint(len(body)) followed
// by the deflate stream, reporting success.
func deflateBody(buf *bytes.Buffer, body []byte) bool {
	var hdr [binary.MaxVarintLen64]byte
	buf.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(body)))])
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(buf)
	_, werr := fw.Write(body)
	cerr := fw.Close()
	flateWriterPool.Put(fw)
	return werr == nil && cerr == nil
}

// inflateBody decodes a compressed frame body: a uvarint declaring the
// inflated size (validated against maxFrame before any allocation)
// followed by the deflate stream, which must inflate to exactly that
// size.
func inflateBody(comp []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(comp)
	if n <= 0 || rawLen > maxFrame {
		return nil, errBadFrame
	}
	br := bytes.NewReader(comp[n:])
	var fr io.ReadCloser
	if v := flateReaderPool.Get(); v != nil {
		fr = v.(io.ReadCloser)
		if err := fr.(flate.Resetter).Reset(br, nil); err != nil {
			return nil, err
		}
	} else {
		fr = flate.NewReader(br)
	}
	out := make([]byte, rawLen)
	_, err := io.ReadFull(fr, out)
	if err == nil {
		var extra [1]byte
		if k, _ := fr.Read(extra[:]); k != 0 {
			err = errBadFrame // inflates past its declared size
		}
	}
	fr.Close()
	flateReaderPool.Put(fr)
	if err != nil {
		return nil, fmt.Errorf("%w: compressed body: %v", seglog.ErrCorrupt, err)
	}
	return out, nil
}

// flagCompressed marks a deflate-compressed frame body.
const flagCompressed = 0x01

// writeFrame assembles and writes one frame as a single Write call, so
// synchronous transports (net.Pipe) cannot interleave partial frames.
// Bodies at least compressMin long are deflated when that shrinks them.
// It returns the bytes written to w — the true wire size, which differs
// from the body length whenever the body compressed.
func writeFrame(w io.Writer, kind byte, body []byte) (int, error) {
	flags := byte(0)
	wireBody := body
	var cbuf *bytes.Buffer
	if len(body) >= compressMin {
		cbuf = compressBufPool.Get().(*bytes.Buffer)
		cbuf.Reset()
		if deflateBody(cbuf, body) && cbuf.Len() < len(body) {
			flags = flagCompressed
			wireBody = cbuf.Bytes()
			framesCompressed.Inc()
			frameRawBytes.Observe(float64(len(body)))
			frameCompressedBytes.Observe(float64(len(wireBody)))
		}
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := append(seglog.Reserve((*bp)[:0]), ProtoVersion, kind, flags)
	buf = append(buf, wireBody...)
	if cbuf != nil {
		putCompressBuf(cbuf)
	}
	n, err := 0, seglog.Seal(buf)
	if err == nil {
		n, err = w.Write(buf)
	}
	if cap(buf) <= frameBufPoolMax {
		*bp = buf
		frameBufPool.Put(bp)
	}
	return n, err
}

// readFrame reads one frame and opens its payload. It returns the
// bytes consumed from r — the wire size, which differs from len(body)
// for compressed frames.
func readFrame(r io.Reader) (kind byte, body []byte, wire int, err error) {
	payload, err := seglog.Read(r)
	if err != nil {
		return 0, nil, 0, err
	}
	kind, body, err = openPayload(payload)
	return kind, body, seglog.HeaderLen + len(payload), err
}

// openPayload checks a frame payload's version and flags and inflates
// a compressed body. The version is checked only once the CRC has
// proven the frame intact, so a *versionError always means a whole
// frame from another build; every other failure wraps
// seglog.ErrCorrupt.
func openPayload(payload []byte) (kind byte, body []byte, err error) {
	if len(payload) >= 2 && payload[0] != ProtoVersion {
		return 0, nil, &versionError{got: payload[0]}
	}
	if len(payload) < 3 || payload[2]&^flagCompressed != 0 {
		return 0, nil, errBadFrame
	}
	kind, body = payload[1], payload[3:]
	if payload[2]&flagCompressed != 0 {
		if body, err = inflateBody(body); err != nil {
			return 0, nil, err
		}
	}
	return kind, body, nil
}
