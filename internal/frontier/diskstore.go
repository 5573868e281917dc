package frontier

import (
	"bufio"
	"container/heap"
	"fmt"
	"os"
	"sort"

	"webevolve/internal/seglog"
)

// diskStore is the disk-backed shard store: a bitcask-style append-only
// record log with an in-memory fingerprint index, keeping only the
// due-soon head of the shard materialized in RAM.
//
// Layout. The shard's log is a seglog log: every mutation appends one
// frame — a put (URL, due, priority) or a tombstone (URL) — so the log
// alone always reconstructs the live entry set: openDiskStore replays
// it front to back (last record per fingerprint wins, tombstones
// delete) with seglog's recovery sweep, which truncates a torn tail at
// the first invalid frame. When dead bytes (overwritten puts,
// tombstones and what they killed) outweigh live ones the log is
// compacted in place: live frames are copied forward to a temp file
// that is renamed over the log.
//
// Record payload: kind u8 | url (uvarint length, bytes) and, for a
// put, due f64 | priority f64 (little endian).
//
// RAM. Per entry the store keeps a fingerprint-keyed index record
// (offset, size, seq, residency bit) and, while the entry is spilled,
// one spillHeap item (due, priority, fingerprint, seq) — no URL string,
// no full Entry. Full entries live in the resident memQueue, which
// holds at most the configured budget of them, filled by direct puts
// while under budget and by promotion from the spill heap when the pop
// order demands it.
//
// Ordering. head/popHead/topN must match memStore bit for bit. The
// resident set is not required to be a prefix of the pop order; instead
// every read promotes spilled entries until the spill minimum orders
// strictly after the resident entry it competes with. Spill items carry
// (due, priority) but not the URL that breaks exact ties, so a tie on
// both keys conservatively promotes the whole tie group and lets the
// resident queue's full comparator decide — a transient overshoot of
// the resident budget bounded by the largest (due, priority) tie group.
//
// Fingerprints are 64-bit FNV-1a over the URL. A collision maps two
// URLs to one index slot and corrupts their entries' bookkeeping; the
// probability is ~n²/2⁶⁴ (about 3·10⁻⁴ at 100M URLs) and the failure
// is confined to the colliding pair, which this design accepts in
// exchange for never holding URL strings for spilled entries.
//
// Error handling. ShardSet has no error returns, so an I/O failure on
// the spill log (disk full, read error, lost file) panics with context.
// The shardd WAL is the durability plane: a restart replays the WAL
// through Reset, which truncates the spill logs and rebuilds them.
type diskStore struct {
	path string
	f    *os.File
	w    *bufio.Writer
	wOff int64 // logical end of the log: offset of the next append

	index map[uint64]*idxEnt
	spill spillHeap
	// resident is the in-RAM head; budget caps its steady-state size
	// (tie-group promotion and large topN requests may transiently
	// exceed it — correctness outranks the cap).
	resident *memQueue
	budget   int

	seq       uint64 // per-record monotonic counter; pairs with spill items
	deadBytes int64  // bytes of overwritten/tombstoned records (and tombstones)
}

// idxEnt is the in-memory index record for one stored entry.
type idxEnt struct {
	off      int64
	size     uint32
	seq      uint64
	resident bool
}

// spillItem is the ordering key of one spilled entry. Items are never
// removed on reschedule; a stale item (seq behind the index, or its
// fingerprint gone or resident) is discarded when it reaches the top.
type spillItem struct {
	due, prio float64
	fp, seq   uint64
}

// spillHeap is a min-heap of spill items in pop-order: due ascending,
// then priority descending. Exact ties are broken by fingerprint only
// to keep the heap deterministic; the real URL tie-break happens in the
// resident queue after the whole tie group is promoted.
type spillHeap []spillItem

func (h spillHeap) Len() int { return len(h) }
func (h spillHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	if h[i].fp != h[j].fp {
		return h[i].fp < h[j].fp
	}
	return h[i].seq > h[j].seq
}
func (h spillHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spillHeap) Push(x any)   { *h = append(*h, x.(spillItem)) }
func (h *spillHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

const (
	recPut  = byte(1)
	recTomb = byte(2)
	// readAhead is how many entries a head read keeps promoted beyond
	// the strict minimum, so a pop burst doesn't pay one log read per
	// pop.
	readAhead = 16
	// compactMinDead and the dead>live rule gate log compaction.
	compactMinDead = 4 << 20
)

// fpOf is 64-bit FNV-1a over the URL bytes.
func fpOf(url string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= prime64
	}
	return h
}

// parseRecord decodes one record payload.
func parseRecord(p []byte) (kind byte, url string, due, prio float64, err error) {
	d := seglog.NewDec(p)
	kind, url = d.U8(), d.Str()
	switch kind {
	case recPut:
		due, prio = d.F64(), d.F64()
	case recTomb:
	default:
		return 0, "", 0, 0, fmt.Errorf("%w: unknown record kind %d", seglog.ErrCorrupt, kind)
	}
	return kind, url, due, prio, d.End()
}

// openDiskStore opens (or creates) one shard's record log and replays
// it into the fingerprint index and spill heap: last record per
// fingerprint wins, tombstones delete, and seglog's sweep truncates
// away the first invalid frame (a torn tail from a crash, or
// corruption) with everything after it.
func openDiskStore(path string, budget int) (*diskStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("frontier: spill log: %w", err)
	}
	d := &diskStore{
		path:     path,
		f:        f,
		w:        bufio.NewWriter(f),
		index:    make(map[uint64]*idxEnt),
		resident: newMemQueue(),
		budget:   max(1, budget),
	}
	if d.wOff, _, err = seglog.Recover(f, d.replay); err != nil {
		f.Close()
		return nil, fmt.Errorf("frontier: spill log %s: %w", path, err)
	}
	heap.Init(&d.spill)
	return d, nil
}

// replay applies the record at off to the index and spill heap.
func (d *diskStore) replay(off int64, p []byte) error {
	kind, url, due, prio, err := parseRecord(p)
	if err != nil {
		return err
	}
	size := uint32(seglog.HeaderLen + len(p))
	d.seq++
	fp := fpOf(url)
	switch kind {
	case recPut:
		if ie, ok := d.index[fp]; ok {
			d.deadBytes += int64(ie.size)
			ie.off, ie.size, ie.seq = off, size, d.seq
		} else {
			d.index[fp] = &idxEnt{off: off, size: size, seq: d.seq}
		}
		d.spill = append(d.spill, spillItem{due: due, prio: prio, fp: fp, seq: d.seq})
	case recTomb:
		if ie, ok := d.index[fp]; ok {
			d.deadBytes += int64(ie.size)
			delete(d.index, fp)
		}
		d.deadBytes += int64(size)
	}
	return nil
}

// fatal is the disk tier's I/O failure path: ShardSet has no error
// returns, so a broken spill log aborts the process with context. The
// WAL (when enabled) makes this recoverable: a restart replays it
// through Reset, rebuilding the spill logs from scratch.
func (d *diskStore) fatal(op string, err error) {
	panic(fmt.Sprintf("frontier: spill log %s: %s: %v", d.path, op, err))
}

func (d *diskStore) flush() {
	if d.w.Buffered() == 0 {
		return
	}
	if err := d.w.Flush(); err != nil {
		d.fatal("flush", err)
	}
}

// appendRecord writes one framed record, returning its offset and size.
func (d *diskStore) appendRecord(kind byte, url string, due, prio float64) (int64, uint32) {
	e := seglog.Enc{B: seglog.Reserve(make([]byte, 0, seglog.HeaderLen+len(url)+32))}
	e.U8(kind).Str(url)
	if kind == recPut {
		e.F64(due).F64(prio)
	}
	rec := e.B
	if err := seglog.Seal(rec); err != nil {
		d.fatal("append", err)
	}
	if _, err := d.w.Write(rec); err != nil {
		d.fatal("append", err)
	}
	off := d.wOff
	d.wOff += int64(len(rec))
	return off, uint32(len(rec))
}

// readEntry loads the put record at (off, size) back into an Entry.
func (d *diskStore) readEntry(off int64, size uint32) Entry {
	d.flush()
	p, err := seglog.ReadAt(d.f, off, int64(size))
	if err != nil {
		d.fatal("read", err)
	}
	kind, url, due, prio, err := parseRecord(p)
	if err != nil || kind != recPut {
		d.fatal("read", fmt.Errorf("bad record at offset %d: %v", off, err))
	}
	return Entry{URL: url, Due: due, Priority: prio}
}

func (d *diskStore) size() int { return len(d.index) }

func (d *diskStore) contains(url string) bool {
	_, ok := d.index[fpOf(url)]
	return ok
}

func (d *diskStore) put(e Entry) {
	fp := fpOf(e.URL)
	d.seq++
	off, size := d.appendRecord(recPut, e.URL, e.Due, e.Priority)
	ie, ok := d.index[fp]
	if ok {
		d.deadBytes += int64(ie.size)
		ie.off, ie.size, ie.seq = off, size, d.seq
	} else {
		ie = &idxEnt{off: off, size: size, seq: d.seq}
		d.index[fp] = ie
		// New entries stay resident while the head is under budget —
		// small frontiers never touch the spill read path.
		if d.resident.size() < d.budget {
			ie.resident = true
			d.resident.put(e)
			d.maybeCompact()
			return
		}
	}
	if ie.resident {
		d.resident.put(e)
	} else {
		heap.Push(&d.spill, spillItem{due: e.Due, prio: e.Priority, fp: fp, seq: d.seq})
	}
	d.maybeCompact()
}

func (d *diskStore) remove(url string) bool {
	fp := fpOf(url)
	ie, ok := d.index[fp]
	if !ok {
		return false
	}
	if ie.resident {
		d.resident.remove(url)
	}
	_, size := d.appendRecord(recTomb, url, 0, 0)
	d.deadBytes += int64(ie.size) + int64(size)
	delete(d.index, fp)
	d.maybeCompact()
	return true
}

// spillMin returns the spill heap's first live item, discarding stale
// ones (rescheduled past their seq, removed, or already promoted).
func (d *diskStore) spillMin() (spillItem, bool) {
	for len(d.spill) > 0 {
		it := d.spill[0]
		ie, ok := d.index[it.fp]
		if !ok || ie.seq != it.seq || ie.resident {
			heap.Pop(&d.spill)
			continue
		}
		return it, true
	}
	return spillItem{}, false
}

// promoteMin loads the spill heap's top entry (which spillMin just
// validated) into the resident queue.
func (d *diskStore) promoteMin() {
	it := heap.Pop(&d.spill).(spillItem)
	ie := d.index[it.fp]
	ie.resident = true
	d.resident.put(d.readEntry(ie.off, ie.size))
}

// spillAfter reports whether the spill item orders strictly after the
// resident entry on (due, priority) alone. A tie is not "after": the
// URL that would break it lives only on disk, so the caller promotes.
func spillAfter(it spillItem, e Entry) bool {
	if it.due != e.Due {
		return it.due > e.Due
	}
	return it.prio < e.Priority
}

// ensureHead promotes until the resident head is the store's true pop
// head (plus a little read-ahead so pop bursts batch their log reads).
func (d *diskStore) ensureHead() {
	for d.resident.size() < min(d.budget, readAhead) {
		if _, ok := d.spillMin(); !ok {
			break
		}
		d.promoteMin()
	}
	for {
		it, ok := d.spillMin()
		if !ok {
			return
		}
		if re, rok := d.resident.head(); rok && spillAfter(it, re) {
			return
		}
		d.promoteMin()
	}
}

func (d *diskStore) head() (Entry, bool) {
	d.ensureHead()
	return d.resident.head()
}

func (d *diskStore) popHead() Entry {
	d.ensureHead()
	e := d.resident.popHead()
	fp := fpOf(e.URL)
	if ie, ok := d.index[fp]; ok {
		_, size := d.appendRecord(recTomb, e.URL, 0, 0)
		d.deadBytes += int64(ie.size) + int64(size)
		delete(d.index, fp)
	}
	d.maybeCompact()
	return e
}

func (d *diskStore) topN(n int) []Entry {
	if n <= 0 || len(d.index) == 0 {
		return nil
	}
	// Make the resident set contain the true first n: fill to n off the
	// spill minimum, then pull everything that could order at or before
	// the resident n-th entry. Promotions only lower that boundary, so
	// one pass against the initial boundary is conservative-correct.
	for d.resident.size() < n {
		if _, ok := d.spillMin(); !ok {
			break
		}
		d.promoteMin()
	}
	if top := d.resident.topN(n); len(top) > 0 {
		bound := top[len(top)-1]
		for {
			it, ok := d.spillMin()
			if !ok || (d.resident.size() >= n && spillAfter(it, bound)) {
				break
			}
			d.promoteMin()
		}
	}
	return d.resident.topN(n)
}

// each visits every entry in log-offset order — deterministic for a
// given operation history. Every entry is read back from the log (it is
// always current: puts are appended even for resident entries), so the
// walk needs no URL map over the resident set.
func (d *diskStore) each(fn func(Entry) error) error {
	for _, ie := range d.byOffset() {
		if err := fn(d.readEntry(ie.off, ie.size)); err != nil {
			return err
		}
	}
	return nil
}

// byOffset returns the index records in log order (offsets are
// unique).
func (d *diskStore) byOffset() []*idxEnt {
	ents := make([]*idxEnt, 0, len(d.index))
	for _, ie := range d.index {
		ents = append(ents, ie)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].off < ents[j].off })
	return ents
}

func (d *diskStore) reset() {
	d.flush()
	if err := d.f.Truncate(0); err != nil {
		d.fatal("truncate", err)
	}
	d.wOff = 0
	d.seq = 0
	d.deadBytes = 0
	d.index = make(map[uint64]*idxEnt)
	d.spill = nil
	d.resident.reset()
}

func (d *diskStore) close() error {
	if err := d.w.Flush(); err != nil {
		d.f.Close()
		return fmt.Errorf("frontier: spill log %s: %w", d.path, err)
	}
	return d.f.Close()
}

func (d *diskStore) tier() TierStats {
	return TierStats{
		Resident:   d.resident.size(),
		Spilled:    len(d.index) - d.resident.size(),
		SpillBytes: d.wOff,
	}
}

// maybeCompact copies the log's live frames forward into a fresh log
// once dead bytes pass a floor and outweigh the live ones. Offsets in the index
// are rewritten; seqs (and with them the spill heap) are untouched.
func (d *diskStore) maybeCompact() {
	if d.deadBytes < compactMinDead || d.deadBytes <= d.wOff-d.deadBytes {
		return
	}
	d.flush()
	tmp := d.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		d.fatal("compact", err)
	}
	w := bufio.NewWriter(nf)
	var off int64
	for _, ie := range d.byOffset() {
		if err := seglog.CopyAt(w, d.f, ie.off, int64(ie.size)); err != nil {
			nf.Close()
			d.fatal("compact copy", err)
		}
		ie.off = off
		off += int64(ie.size)
	}
	if err := w.Flush(); err != nil {
		nf.Close()
		d.fatal("compact flush", err)
	}
	if err := os.Rename(tmp, d.path); err != nil {
		nf.Close()
		d.fatal("compact rename", err)
	}
	if err := d.f.Close(); err != nil {
		d.fatal("compact close", err)
	}
	d.f = nf
	d.w.Reset(nf)
	d.wOff = off
	d.deadBytes = 0
}
