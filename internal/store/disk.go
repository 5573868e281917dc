package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"webevolve/internal/seglog"
)

// Disk is a log-structured on-disk Collection: records are appended to
// segment files with CRC-protected framing, an in-memory index maps URL
// to (segment, offset), deletes append tombstones, and a compactor
// rewrites live records when the garbage ratio grows. Opening a directory
// replays the segments to rebuild the index, so a crawl survives a
// restart — a property the paper's in-place incremental crawler needs,
// since it never gets a "start from scratch" moment.
//
// Concurrency: every segment keeps one shared read handle, and reads go
// through positioned ReadAt calls (pread) on it, so they never touch the
// appender's file offset. A reader pins its segment with a reference
// count before leaving the lock; compaction retires old segments by
// marking them, and the file is closed and unlinked only when the last
// pinned reader releases it — a Get or Scan in flight across a Compact
// always completes against the bytes it indexed.
//
// Crash tolerance: a segment is a seglog log, and replay is seglog's
// recovery sweep — it stops at the first invalid frame, torn OR
// corrupt, and truncates the segment back to the last CRC-valid frame,
// so a crash that leaves full-length garbage on the tail delays nothing
// more than the frames that were never acknowledged.
//
// Each frame's payload is a put (the PageRecord in the binary record
// codec the store wire protocol uses too) or a tombstone; record.go has
// the layout. Segments are named segment-NNNNNN.seg. A segment-*.log
// file holds an earlier build's format (a 12-byte header and JSON
// records): OpenDisk refuses its directory and leaves the file as it
// is.
type Disk struct {
	mu      sync.Mutex
	dir     string
	segID   int              // active segment, append-only
	segOff  int64            // size of the active segment
	active  *os.File         // the active segment's handle, appended to
	segs    map[int]*segment // all live segments, the active one included
	index   map[string]diskPos
	live    int // live records
	garbage int // superseded/tombstone frames
	closed  bool
	openFDs int // segments currently holding an open handle
	// broken is the first failed append. The segment may end in part of
	// a frame, and appends after it would be indexed at wrong offsets,
	// so every later write fails; reopening sweeps the partial frame.
	broken error

	// MaxSegmentBytes bounds a segment before rolling to a new one.
	maxSegmentBytes int64
	// maxOpenSegments caps the open read handles: cold segments beyond
	// it are closed and reopened on demand, so the store's descriptor
	// footprint stays O(cap) however large the collection grows.
	maxOpenSegments int
}

// diskPos locates one record frame: its segment, offset and length.
type diskPos struct {
	seg    int
	off, n int64
}

// segment is one segment file and its shared read handle. refs counts
// readers using the handle outside d.mu; a retired segment (replaced by
// compaction, or swept at Close) is closed — and, after compaction,
// unlinked — by whoever drops refs to zero. A cold segment's handle
// may be evicted (f == nil) and is reopened on demand; eviction never
// touches the active segment or one pinned by readers.
type segment struct {
	id      int
	f       *os.File // nil: evicted; reopened by the next acquire
	refs    int
	retired bool
	remove  bool // unlink once released (compacted away)
}

// OpenDisk opens (or creates) a disk collection in dir. A torn or
// corrupt tail left by a crash is truncated back to the last CRC-valid
// frame; it never fails the open. A directory holding a segment of an
// earlier build's format fails it, and that segment is left untouched.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:             dir,
		segs:            make(map[int]*segment),
		index:           make(map[string]diskPos),
		maxSegmentBytes: 64 << 20,
		maxOpenSegments: 256,
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := d.replay(id); err != nil {
			d.closeSegsLocked()
			return nil, err
		}
	}
	nextID := 1
	if len(ids) > 0 {
		nextID = ids[len(ids)-1] + 1
	}
	if err := d.openSegment(nextID); err != nil {
		d.closeSegsLocked()
		return nil, err
	}
	return d, nil
}

// closeSegsLocked drops every segment handle (open-failure cleanup).
func (d *Disk) closeSegsLocked() {
	for id, s := range d.segs {
		if s.f != nil {
			s.f.Close()
			s.f = nil
			d.openFDs--
		}
		delete(d.segs, id)
	}
}

func segmentName(id int) string { return fmt.Sprintf("segment-%06d.seg", id) }

func segmentPath(dir string, id int) string { return filepath.Join(dir, segmentName(id)) }

// segmentIDs lists the segments in dir, ascending. A name counts only
// if segmentName gives it back exactly; an earlier build's segment-*.log
// is an error, so its records are never swept as corrupt frames.
func segmentIDs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".log") {
			return nil, fmt.Errorf("store: %s is a segment of an earlier build's record format; this build reads only segment-*.seg",
				filepath.Join(dir, name))
		}
		digits := strings.TrimSuffix(strings.TrimPrefix(name, "segment-"), ".seg")
		if id, err := strconv.Atoi(digits); err == nil && segmentName(id) == name {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// openSegment opens the active append segment. The same handle doubles
// as the segment's shared read handle: ReadAt is positioned, so reads
// never disturb the append offset.
func (d *Disk) openSegment(id int) error {
	f, err := os.OpenFile(segmentPath(d.dir, id), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	d.segs[id] = &segment{id: id, f: f}
	d.openFDs++
	storeSegmentOpens.Inc()
	d.segID = id
	d.segOff = st.Size()
	d.active = f
	d.evictColdLocked()
	return nil
}

// replay scans one segment with seglog's recovery sweep, updating the
// index, and keeps the file open as the segment's read handle. A torn
// or corrupt tail is truncated away: in the crash case those frames
// were never acknowledged, so dropping them loses nothing a caller was
// promised. (Mid-file bit rot reads the same and gets the same sweep,
// trading the rest of that one segment for never refusing to open;
// later segments still replay.) A real read error fails the open
// instead, since the bytes may be fine.
func (d *Disk) replay(id int) error {
	f, err := os.OpenFile(segmentPath(d.dir, id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, swept, err := seglog.Recover(f, func(off int64, p []byte) error {
		url, tomb, err := frameKey(p)
		if err != nil {
			return err
		}
		storeReplayedFrames.Inc()
		_, had := d.index[url]
		switch {
		case tomb && had:
			delete(d.index, url)
			d.live--
			d.garbage += 2 // the superseded record and the tombstone
		case tomb:
			d.garbage++
		default:
			if had {
				d.garbage++
			} else {
				d.live++
			}
			d.index[url] = diskPos{seg: id, off: off, n: seglog.HeaderLen + int64(len(p))}
		}
		return nil
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("store: segment %d: %w", id, err)
	}
	if swept {
		storeTornTails.Inc()
	}
	d.segs[id] = &segment{id: id, f: f}
	d.openFDs++
	storeSegmentOpens.Inc()
	d.evictColdLocked()
	return nil
}

// acquireLocked pins the segment against retirement, reopening an
// evicted handle on demand. Caller holds d.mu. A pinned segment's
// handle stays valid until release: eviction and retirement both skip
// segments with refs > 0.
func (d *Disk) acquireLocked(id int) (*segment, error) {
	s := d.segs[id]
	if s == nil {
		return nil, fmt.Errorf("store: index references missing segment %d", id)
	}
	if err := d.ensureOpenLocked(s); err != nil {
		return nil, err
	}
	// Pin before evicting: the pin protects the fresh handle from its
	// own eviction pass.
	s.refs++
	d.evictColdLocked()
	return s, nil
}

// ensureOpenLocked reopens an evicted segment handle. It never evicts
// — callers evict at points where the handle they need is protected
// (pinned, or the active segment).
func (d *Disk) ensureOpenLocked(s *segment) error {
	if s.f != nil {
		return nil
	}
	f, err := os.Open(segmentPath(d.dir, s.id))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	d.openFDs++
	storeSegmentReopens.Inc()
	return nil
}

// evictColdLocked closes idle handles beyond the cap — never the
// active segment and never one a reader has pinned — so descriptor use
// stays bounded however many segments the collection spans. Map
// iteration order makes the eviction order arbitrary, which is fine: a
// wrongly evicted handle just reopens on its next acquire.
func (d *Disk) evictColdLocked() {
	if d.maxOpenSegments <= 0 {
		return
	}
	for id, s := range d.segs {
		if d.openFDs <= d.maxOpenSegments {
			return
		}
		if id == d.segID || s.f == nil || s.refs > 0 {
			continue
		}
		s.f.Close()
		s.f = nil
		d.openFDs--
		storeSegmentEvictions.Inc()
	}
}

// release drops a reader's pin; the last release of a retired segment
// closes the handle and, for compacted-away segments, unlinks the file.
func (d *Disk) release(s *segment) {
	d.mu.Lock()
	s.refs--
	var f *os.File
	remove := false
	if s.retired && s.refs == 0 && s.f != nil {
		f, s.f = s.f, nil
		d.openFDs--
		remove = s.remove
	}
	// A wide Scan can pin (and open) many segments at once; trim back
	// to the cap as the pins drop.
	d.evictColdLocked()
	d.mu.Unlock()
	if f != nil {
		f.Close()
		if remove {
			os.Remove(segmentPath(d.dir, s.id))
		}
	}
}

// retireLocked removes a segment from the live set. If no reader holds
// it, the handle is closed (and the file removed) immediately;
// otherwise the last reader's release finishes the job. Caller holds
// d.mu.
func (d *Disk) retireLocked(s *segment, remove bool) error {
	delete(d.segs, s.id)
	s.retired, s.remove = true, remove
	if s.refs > 0 {
		return nil
	}
	var err error
	if s.f != nil {
		err = s.f.Close()
		s.f = nil
		d.openFDs--
	}
	if remove {
		if rerr := os.Remove(segmentPath(d.dir, s.id)); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Put implements Collection.
func (d *Disk) Put(rec PageRecord) error {
	return d.PutBatch([]PageRecord{rec})
}

// PutBatch implements Collection: all records are framed before the
// lock is taken (ends[i] is where record i's frame ends in buf) and
// written to the segment in one write, so a crawl engine writing page
// batches pays one write per batch instead of per page. Segment rolling
// and compaction are evaluated once after the batch, so the active
// segment may briefly overshoot its size bound by one batch.
func (d *Disk) PutBatch(recs []PageRecord) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	ends := make([]int, len(recs))
	for i, rec := range recs {
		if rec.URL == "" {
			return errors.New("store: empty URL")
		}
		var err error
		if buf, err = appendFrame(buf, rec, false); err != nil {
			return err
		}
		ends[i] = len(buf)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	off := d.segOff
	if err := d.appendLocked(buf); err != nil {
		return err
	}
	prev := 0
	for i, rec := range recs {
		if _, ok := d.index[rec.URL]; ok {
			d.garbage++
		} else {
			d.live++
		}
		d.index[rec.URL] = diskPos{seg: d.segID, off: off + int64(prev), n: int64(ends[i] - prev)}
		prev = ends[i]
	}
	storePuts.Add(int64(len(recs)))
	return d.maybeRollLocked()
}

// Get implements Collection. The read happens outside the lock against
// a pinned segment handle, so a concurrent Compact cannot pull the file
// out from under it.
func (d *Disk) Get(url string) (PageRecord, bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return PageRecord{}, false, ErrClosed
	}
	pos, ok := d.index[url]
	if !ok {
		d.mu.Unlock()
		return PageRecord{}, false, nil
	}
	s, err := d.acquireLocked(pos.seg)
	d.mu.Unlock()
	if err != nil {
		return PageRecord{}, false, err
	}
	defer d.release(s)
	storeGets.Inc()
	rec, err := readRecord(s.f, pos)
	if err != nil {
		return PageRecord{}, false, err
	}
	return rec, true, nil
}

// appendLocked writes framed records to the active segment in one
// write, so every record is in the file before the call returns.
func (d *Disk) appendLocked(buf []byte) error {
	if d.broken != nil {
		return d.broken
	}
	if _, err := d.active.Write(buf); err != nil {
		d.broken = fmt.Errorf("store: %w", err)
		return d.broken
	}
	d.segOff += int64(len(buf))
	return nil
}

// Delete implements Collection.
func (d *Disk) Delete(url string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.index[url]; !ok {
		return nil
	}
	buf, err := appendFrame(nil, PageRecord{URL: url}, true)
	if err != nil {
		return err
	}
	if err := d.appendLocked(buf); err != nil {
		return err
	}
	delete(d.index, url)
	d.live--
	d.garbage += 2 // superseded record + tombstone
	storeDeletes.Inc()
	return d.maybeRollLocked()
}

// maybeRollLocked starts a new segment when the active one is large, and
// compacts when garbage dominates.
func (d *Disk) maybeRollLocked() error {
	if d.segOff >= d.maxSegmentBytes {
		// The filled segment stays open as a read handle; only the
		// writer moves on.
		if err := d.openSegment(d.segID + 1); err != nil {
			return err
		}
		storeSegmentRolls.Inc()
	}
	if d.garbage > 4*(d.live+1) && d.live >= 0 {
		return d.compactLocked()
	}
	return nil
}

// compactLocked rewrites all live records into a fresh segment and
// retires the old ones. Frames are copied forward whole by seglog — no
// decode/re-encode round trip. Old segments whose handles are pinned by
// in-flight readers stay readable until those readers release them;
// their files are unlinked at the last release.
func (d *Disk) compactLocked() error {
	old := make([]*segment, 0, len(d.segs))
	for _, s := range d.segs {
		old = append(old, s)
	}
	if err := d.openSegment(d.segID + 1); err != nil {
		return err
	}
	newID := d.segID
	w := bufio.NewWriter(d.active)
	urls := make([]string, 0, len(d.index))
	for u := range d.index {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	// A failed copy leaves the new segment short of segOff: poison the
	// store like a failed append.
	fail := func(err error) error {
		d.broken = err
		return err
	}
	newIndex := make(map[string]diskPos, len(urls))
	for _, u := range urls {
		pos := d.index[u]
		src := d.segs[pos.seg]
		if err := d.ensureOpenLocked(src); err != nil {
			return fail(err)
		}
		if err := seglog.CopyAt(w, src.f, pos.off, pos.n); err != nil {
			return fail(fmt.Errorf("store: segment %d: %w", pos.seg, err))
		}
		newIndex[u] = diskPos{seg: newID, off: d.segOff, n: pos.n}
		d.segOff += pos.n
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	d.index = newIndex
	d.live = len(newIndex)
	d.garbage = 0
	var firstErr error
	for _, s := range old {
		if err := d.retireLocked(s, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	storeCompactions.Inc()
	return firstErr
}

// Len implements Collection.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// URLs implements Collection.
func (d *Disk) URLs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.index))
	for u := range d.index {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// URLsFrom visits the stored URLs strictly after the given URL in
// ascending order — ScanFrom's key-only sibling: one index walk, no
// record reads, lazy ordering, so a chunked consumer (the store
// server's wire URL listing) never sorts the unconsumed tail. The
// index snapshot is taken outside the lock's critical reads.
func (d *Disk) URLsFrom(after string, fn func(string) bool) {
	d.mu.Lock()
	keys := make([]string, 0, len(d.index))
	for u := range d.index {
		if after != "" && u <= after {
			continue
		}
		keys = append(keys, u)
	}
	d.mu.Unlock()
	visitAscending(keys, func(a, b string) bool { return a < b }, fn)
}

// Scan implements Collection: one index snapshot under the lock, then
// positioned reads through pinned segment handles — no per-record file
// open, and a concurrent Compact cannot invalidate the snapshot. The
// scan sees exactly the records indexed at its start (frames are
// immutable once written).
func (d *Disk) Scan(fn func(PageRecord) bool) error {
	return d.ScanFrom("", fn)
}

// ScanFrom is Scan resuming strictly after the given URL (empty scans
// everything): records at or before it are excluded from the snapshot,
// and the suffix is visited lazily in sorted order (heap-select), so a
// chunked consumer (the store server's wire scan) pays one index walk
// plus O(k log n) per chunk — it decodes only the records it returns,
// never sorting or reading the unconsumed tail.
func (d *Disk) ScanFrom(after string, fn func(PageRecord) bool) error {
	type item struct {
		url string
		pos diskPos
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	items := make([]item, 0, len(d.index))
	pinned := make(map[int]*segment)
	for u, pos := range d.index {
		if u <= after && after != "" {
			continue
		}
		items = append(items, item{url: u, pos: pos})
		if pinned[pos.seg] == nil {
			s, err := d.acquireLocked(pos.seg)
			if err != nil {
				d.mu.Unlock()
				for _, p := range pinned {
					d.release(p)
				}
				return err
			}
			pinned[pos.seg] = s
		}
	}
	d.mu.Unlock()
	defer func() {
		for _, s := range pinned {
			d.release(s)
		}
	}()
	var err error
	visitAscending(items, func(a, b item) bool { return a.url < b.url }, func(it item) bool {
		rec, derr := readRecord(pinned[it.pos.seg].f, it.pos)
		if derr != nil {
			err = derr
			return false
		}
		return fn(rec)
	})
	return err
}

// Compact forces a compaction pass.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.compactLocked()
}

// GarbageRatio reports garbage frames per live record, for tests.
func (d *Disk) GarbageRatio() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live == 0 {
		return float64(d.garbage)
	}
	return float64(d.garbage) / float64(d.live)
}

// Close implements Collection. Segments pinned by in-flight readers are
// closed by those readers' releases; everything else closes now.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	for _, s := range d.segs {
		if rerr := d.retireLocked(s, false); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}
