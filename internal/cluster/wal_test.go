package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/seglog"
)

// newWALServer opens a shard server persisting to dir.
func newWALServer(t *testing.T, dir string, shards int) *ShardServer {
	t.Helper()
	srv := NewShardServer(frontier.NewSharded(shards))
	if err := srv.OpenWAL(dir); err != nil {
		t.Fatal(err)
	}
	return srv
}

// pushVia pushes through the wire path (so ops are logged), not the
// frontier directly.
func pushVia(t *testing.T, srv *ShardServer, reqID uint64, url string, due, prio float64) {
	t.Helper()
	var e seglog.Enc
	e.Fix64(reqID).Str(url).F64(due).F64(prio)
	if st, resp := srv.handle(opPush, e.B); st != statusOK {
		t.Fatalf("push: %s", resp)
	}
}

func popVia(t *testing.T, srv *ShardServer, reqID uint64, now float64) (frontier.Entry, bool) {
	t.Helper()
	var e seglog.Enc
	e.Fix64(reqID).F64(now)
	st, resp := srv.handle(opPopDue, e.B)
	if st != statusOK {
		t.Fatalf("pop: %s", resp)
	}
	d := seglog.NewDec(resp)
	ent, ok := decodeEntry(d)
	return ent, ok
}

// TestWALRecoversAfterCrash: a server abandoned without CloseWAL (the
// crash case — appends are on disk, no final snapshot) must come back
// with the exact frontier: acknowledged pushes present, acknowledged
// pops absent.
func TestWALRecoversAfterCrash(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(6, 3)
	for i, u := range urls {
		pushVia(t, srv, uint64(1000+i), u, float64(i%5), float64(i%2))
	}
	var popped []string
	for i := 0; i < 5; i++ {
		e, ok := popVia(t, srv, uint64(2000+i), 10)
		if !ok {
			t.Fatal("pop drained early")
		}
		popped = append(popped, e.URL)
	}
	// Crash: no CloseWAL, no final snapshot.

	srv2 := newWALServer(t, dir, 4)
	if got, want := srv2.Shards().Len(), len(urls)-len(popped); got != want {
		t.Fatalf("recovered Len = %d, want %d", got, want)
	}
	for _, u := range popped {
		if srv2.Shards().Contains(u) {
			t.Fatalf("popped URL %s resurrected by replay", u)
		}
	}
	// The recovered queue keeps popping in the order the original would
	// have.
	mirror := frontier.NewSharded(4)
	for i, u := range urls {
		mirror.Push(u, float64(i%5), float64(i%2))
	}
	for range popped {
		mirror.PopDue(10)
	}
	req := uint64(3000)
	for {
		me, mok := mirror.PopDue(10)
		req++
		se, sok := popVia(t, srv2, req, 10)
		if mok != sok {
			t.Fatalf("recovered pop ok %v vs %v", sok, mok)
		}
		if !mok {
			break
		}
		if !sameEntry(me, se) {
			t.Fatalf("recovered pop %+v vs %+v", se, me)
		}
	}
}

// TestWALGracefulFlush: CloseWAL must persist every queued entry into
// the snapshot (the graceful-shutdown contract), leaving an empty log.
func TestWALGracefulFlush(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(4, 4)
	for i, u := range urls {
		pushVia(t, srv, uint64(100+i), u, float64(i), 0)
	}
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walSnapName)); err != nil {
		t.Fatalf("no snapshot after graceful shutdown: %v", err)
	}
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != len(urls) {
		t.Fatalf("flushed %d entries, recovered %d", len(urls), got)
	}
}

// TestWALTornTailTruncated: garbage appended to the log (a torn write
// from a crash mid-append) must be swept away — the valid prefix
// replays, the op that tore was never acknowledged.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 2, 0)

	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	active := walFilePath(dir, seqs[len(seqs)-1])
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
	if !srv2.Shards().Contains("http://site001.com/a") || !srv2.Shards().Contains("http://site002.com/b") {
		t.Fatal("acknowledged pushes lost to torn tail")
	}
}

// TestWALRefusesOtherProtoVersion: a log or snapshot written by a
// build speaking another protocol version must fail OpenWAL with an
// error naming the version, and leave the file byte-for-byte intact.
// Its frames are whole and CRC-valid, so treating them as a torn tail
// would truncate away the exact state the WAL exists to keep.
func TestWALRefusesOtherProtoVersion(t *testing.T) {
	const old = ProtoVersion - 1
	want := fmt.Sprintf("protocol version %d", old)
	refused := func(t *testing.T, dir, path string) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		err = NewShardServer(frontier.NewSharded(4)).OpenWAL(dir)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("OpenWAL = %v, want an error naming %q", err, want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s changed (%d -> %d bytes): refused file was rewritten", filepath.Base(path), len(before), len(after))
		}
	}

	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		path := walFilePath(dir, 0)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, walFilePerm)
		if err != nil {
			t.Fatal(err)
		}
		var cur seglog.Enc
		cur.Fix64(100).Str("http://site001.com/a").F64(0).F64(0)
		if _, err := writeFrame(f, opPush, cur.B); err != nil {
			t.Fatal(err)
		}
		var e seglog.Enc
		e.Fix64(101).Str("http://site002.com/b").F64(1).F64(0)
		writeFrameVersion(t, f, old, opPush, e.B)
		f.Close()
		refused(t, dir, path)
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, walSnapName)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var hdr seglog.Enc
		hdr.U64(0).F64(0).U32(0)
		writeFrameVersion(t, f, old, walSnapHeader, hdr.B)
		writeFrameVersion(t, f, old, walSnapEnd, nil)
		f.Close()
		refused(t, dir, path)
	})
}

// writeFrameVersion hand-assembles one frame in the pre-v6 layout
// (two-byte payload header, no flags byte) stamped with an explicit
// protocol version — what an older shardd build would have written.
func writeFrameVersion(t *testing.T, f *os.File, version, kind byte, body []byte) {
	t.Helper()
	buf := make([]byte, 8+2+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)+2))
	buf[8] = version
	buf[9] = kind
	copy(buf[10:], body)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// walBatchBody builds a push-batch body big enough that writeFrame
// deflates the WAL frame (front-coded URLs, > compressMin bytes raw).
func walBatchBody(reqID uint64, urls []string) []byte {
	var e seglog.Enc
	e.Fix64(reqID)
	ents := make([]frontier.Entry, len(urls))
	for i, u := range urls {
		ents[i] = frontier.Entry{URL: u, Due: float64(i)}
	}
	encodeEntries(&e, ents)
	return e.B
}

// TestWALReplaysCompressedFrames: a current-build WAL — batch bodies big enough to ride the compression flag — must replay
// exactly after a crash (no CloseWAL, no snapshot).
func TestWALReplaysCompressedFrames(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(8, 8)
	if st, resp := srv.handle(opPushBatch, walBatchBody(900, urls)); st != statusOK {
		t.Fatalf("batch push: %s", resp)
	}

	// The test is vacuous unless the logged frame really is compressed:
	// find a flags byte with flagCompressed set in the active log.
	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	raw, err := os.ReadFile(walFilePath(dir, seqs[len(seqs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	compressed := false
	for off := 0; off+8 <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		if off+8+n > len(raw) {
			break
		}
		if n >= 3 && raw[off+8] == ProtoVersion && raw[off+8+2]&flagCompressed != 0 {
			compressed = true
		}
		off += 8 + n
	}
	if !compressed {
		t.Fatal("batch frame was not compressed in the WAL; test exercises nothing")
	}

	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != len(urls) {
		t.Fatalf("recovered Len = %d, want %d", got, len(urls))
	}
	for _, u := range urls {
		if !srv2.Shards().Contains(u) {
			t.Fatalf("entry %s lost replaying a compressed WAL", u)
		}
	}
}

// TestWALTornCompressedTailTruncated: a compressed frame torn
// mid-write must sweep back to the last CRC-valid frame — acknowledged
// ops before the tear survive, and the file is truncated to the valid
// prefix so subsequent appends don't interleave with garbage.
func TestWALTornCompressedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 2, 0)

	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	active := walFilePath(dir, seqs[len(seqs)-1])

	// A well-formed compressed batch frame, torn 5 bytes short: the
	// length prefix promises more than the file holds.
	var torn bytes.Buffer
	if _, err := writeFrame(&torn, opPushBatch, walBatchBody(901, testURLs(8, 8))); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn.Bytes()[:torn.Len()-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
	if !srv2.Shards().Contains("http://site001.com/a") || !srv2.Shards().Contains("http://site002.com/b") {
		t.Fatal("acknowledged pushes lost to torn compressed tail")
	}
	// The swept log must stay appendable: a post-recovery push has to
	// survive another restart, proving the tear left no garbage behind.
	pushVia(t, srv2, 3, "http://site003.com/c", 3, 0)
	srv3 := newWALServer(t, dir, 4)
	if got := srv3.Shards().Len(); got != 3 {
		t.Fatalf("post-sweep append lost: Len = %d, want 3", got)
	}
}

// TestWALCompactionBoundsLog: compaction must fold the log into the
// snapshot, delete covered files, and lose nothing.
func TestWALCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(8, 4)
	for i, u := range urls {
		pushVia(t, srv, uint64(10+i), u, float64(i%6), 0)
	}
	if err := srv.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	seqs, err := walFileSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("%d wal files after compaction, want 1", len(seqs))
	}
	pushVia(t, srv, 999, "http://site999.com/late", 0, 0)
	// Crash-reopen: snapshot + post-compaction log must both replay.
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != len(urls)+1 {
		t.Fatalf("recovered Len = %d, want %d", got, len(urls)+1)
	}
}

// TestWALDedupSurvivesRestart: a retry whose original landed in the
// log must be deduped by the *restarted* server — the replay rebuilds
// the response cache, closing the crash window between apply and ack.
func TestWALDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 0, 1)

	var claim seglog.Enc
	claim.Fix64(77).F64(10)
	st1, resp1 := srv.handle(opClaimDue, claim.B)
	if st1 != statusOK {
		t.Fatalf("claim: %s", resp1)
	}
	// Crash before the response reached the client; the client retries
	// the identical frame against the restarted server.
	srv2 := newWALServer(t, dir, 4)
	st2, resp2 := srv2.handle(opClaimDue, claim.B)
	if st2 != st1 || string(resp2) != string(resp1) {
		t.Fatalf("retry across restart not deduped: (%d,%q) vs (%d,%q)", st2, resp2, st1, resp1)
	}
	if got := srv2.Shards().Len(); got != 1 {
		t.Fatalf("retry across restart re-popped: Len = %d, want 1", got)
	}
}

// TestWALRestoreKeepsPoliteness: politeness set by a client hello is
// captured by compaction and restored on restart.
func TestWALRestoreKeepsPoliteness(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	srv.Shards().SetPoliteness(2.5)
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Politeness(); got != 2.5 {
		t.Fatalf("restored politeness %v, want 2.5", got)
	}
}

// TestWALShardCountChange: restoring a snapshot into a different shard
// layout keeps every entry (re-hashed) and drops only the per-shard
// scheduling state.
func TestWALShardCountChange(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(5, 2)
	for i, u := range urls {
		pushVia(t, srv, uint64(50+i), u, float64(i), 0)
	}
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 8)
	if got := srv2.Shards().Len(); got != len(urls) {
		t.Fatalf("re-sharded recovery Len = %d, want %d", got, len(urls))
	}
}

// TestWALReplayKeepsHelloPoliteness: politeness applied by a client
// hello is a logged mutation — a crash-recovered server must pop with
// the same politeness deadlines the live server used.
func TestWALReplayKeepsHelloPoliteness(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	var hello seglog.Enc
	hello.Bool(true).F64(1.5).Bool(true)
	if st, resp := srv.handle(opHello, hello.B); st != statusOK {
		t.Fatalf("hello: %s", resp)
	}
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	// Crash: no snapshot since the hello.
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Politeness(); got != 1.5 {
		t.Fatalf("replayed politeness %v, want 1.5", got)
	}
}

// TestWALSnapshotChunks: a frontier larger than one snapshot chunk
// round-trips through compaction intact (the snapshot has no single-
// frame size ceiling).
func TestWALSnapshotChunks(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	n := walSnapChunk + 123
	entries := make([]frontier.Entry, n)
	for i := range entries {
		entries[i] = frontier.Entry{
			URL: fmt.Sprintf("http://site%03d.com/p%06d", i%50, i),
			Due: float64(i % 11), Priority: float64(i % 3),
		}
	}
	srv.Shards().PushBatch(entries)
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != n {
		t.Fatalf("recovered Len = %d, want %d", got, n)
	}
}

// TestWALSkipsNoOpPops: pops that return nothing must not grow the log
// — an idle worker pool polling an empty frontier would otherwise
// churn it without bound.
func TestWALSkipsNoOpPops(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	sizeOf := func() int64 {
		seqs, err := walFileSeqs(dir)
		if err != nil || len(seqs) == 0 {
			t.Fatalf("no wal files: %v", err)
		}
		fi, err := os.Stat(walFilePath(dir, seqs[len(seqs)-1]))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := sizeOf()
	for i := 0; i < 10; i++ {
		if _, ok := popVia(t, srv, uint64(100+i), 5); ok {
			t.Fatal("pop on empty frontier returned an entry")
		}
	}
	if after := sizeOf(); after != before {
		t.Fatalf("no-op pops grew the log: %d -> %d bytes", before, after)
	}
	pushVia(t, srv, 999, "http://site001.com/a", 0, 0)
	if after := sizeOf(); after == before {
		t.Fatal("real mutation did not grow the log")
	}
}

// TestWALIgnoresStrayFiles: a file whose name only starts like a log
// file (a backup copy, say) is neither replayed nor removed.
func TestWALIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "frontier-00000009.wal.bak")
	if err := os.WriteFile(stray, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != 1 {
		t.Fatalf("recovered Len = %d, want 1", got)
	}
	if b, err := os.ReadFile(stray); err != nil || string(b) != "not a log" {
		t.Fatalf("stray file changed: %q, %v", b, err)
	}
}
