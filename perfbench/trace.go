package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/serve"
	"webevolve/internal/store"
)

// The traced run wraps every interface a layer is called through and
// records one span per call: its name, start, end, and the span that
// caused it. A call made inside Crawler.RunUntil is caused by that
// RunUntil span; a store or Source call made while serving a request
// is caused by that request's handler span. Spans stay in memory and
// are written out as JSON lines when the run ends.
//
// Nothing here runs in the untraced runs the end-to-end metrics come
// from; the program itself is not instrumented.

// span is one recorded call. Times are nanoseconds since the
// recorder's epoch; N is the batch size (records, entries) or, for a
// handler span, the client's request number.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

// recorder collects spans from every goroutine of the load process.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	// runSpan is the ID of the RunUntil span in progress (0 outside
	// one), and crawlG the goroutine that calls RunUntil: store calls
	// on it belong to the crawl, store calls elsewhere to a request.
	runSpan atomic.Uint64
	crawlG  atomic.Uint64
	// reqSpan maps a handler goroutine to its request's span ID, and
	// inflight counts the requests being served.
	reqSpan  sync.Map
	inflight atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span that started at start and ends now.
func (r *recorder) add(name string, parent uint64, start int64, n int) {
	end := r.now()
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, N: n})
	r.mu.Unlock()
}

// runUntil times one Crawler.RunUntil call as the root span of the
// calls it makes.
func (r *recorder) runUntil(run func() error) error {
	id := r.nextID.Add(1)
	r.crawlG.Store(goid())
	start := r.now()
	r.runSpan.Store(id)
	err := run()
	r.runSpan.Store(0)
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Name: "core.run_until", Start: start, End: end})
	r.mu.Unlock()
	return err
}

// callerSpan is the cause of a call made on the current goroutine:
// the RunUntil in progress on the crawl goroutine, the request being
// served on a handler goroutine, else none. With no request in flight
// the caller cannot be a handler, which spares the goroutine lookup.
func (r *recorder) callerSpan() uint64 {
	if r.inflight.Load() == 0 {
		return r.runSpan.Load()
	}
	g := goid()
	if g == r.crawlG.Load() {
		return r.runSpan.Load()
	}
	if id, ok := r.reqSpan.Load(g); ok {
		return id.(uint64)
	}
	return 0
}

// take returns the spans recorded so far and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the current goroutine's ID, parsed from the first line
// of its stack trace ("goroutine 18 [running]:"). The runtime offers
// no cheaper handle, and tracing only needs it to tell the crawl
// goroutine from request handlers.
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id uint64
	for _, c := range b[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// tracedFetcher is the fetch layer: every Fetch is a span caused by
// the RunUntil in progress.
type tracedFetcher struct {
	inner  fetch.Fetcher
	rec    *recorder
	errors atomic.Int64
}

func (f *tracedFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	start := f.rec.now()
	res, err := f.inner.Fetch(url, day)
	f.rec.add("fetch", f.rec.runSpan.Load(), start, 1)
	if err != nil {
		f.errors.Add(1)
	}
	return res, err
}

// tracedShards is the frontier layer. Besides the ShardSet methods it
// forwards every optional interface the engine type-asserts — the
// ApplyRound fast path, Err, Rebalance and Epoch — plus WireBytes, so
// the engine takes exactly the paths it takes unwrapped. ShardOf,
// NumShards and the membership calls are routing, not queue
// operations, and are forwarded untimed.
type tracedShards struct {
	inner frontier.ShardSet
	rec   *recorder
}

var _ frontier.ShardSet = (*tracedShards)(nil)

func (t *tracedShards) span(name string, start int64, n int) {
	t.rec.add(name, t.rec.runSpan.Load(), start, n)
}

func (t *tracedShards) NumShards() int         { return t.inner.NumShards() }
func (t *tracedShards) ShardOf(url string) int { return t.inner.ShardOf(url) }

func (t *tracedShards) Push(url string, due, priority float64) {
	start := t.rec.now()
	t.inner.Push(url, due, priority)
	t.span("frontier.push", start, 1)
}

func (t *tracedShards) PushBatch(entries []frontier.Entry) {
	start := t.rec.now()
	t.inner.PushBatch(entries)
	t.span("frontier.push_batch", start, len(entries))
}

func (t *tracedShards) PopDue(now float64) (frontier.Entry, bool) {
	start := t.rec.now()
	e, ok := t.inner.PopDue(now)
	t.span("frontier.pop_due", start, 1)
	return e, ok
}

func (t *tracedShards) ClaimDue(now float64) (frontier.Entry, int, bool) {
	start := t.rec.now()
	e, shard, ok := t.inner.ClaimDue(now)
	t.span("frontier.claim_due", start, 1)
	return e, shard, ok
}

func (t *tracedShards) Release(shard int, nextReady float64) {
	start := t.rec.now()
	t.inner.Release(shard, nextReady)
	t.span("frontier.release", start, 1)
}

func (t *tracedShards) Remove(url string) bool {
	start := t.rec.now()
	ok := t.inner.Remove(url)
	t.span("frontier.remove", start, 1)
	return ok
}

func (t *tracedShards) Contains(url string) bool {
	start := t.rec.now()
	ok := t.inner.Contains(url)
	t.span("frontier.contains", start, 1)
	return ok
}

func (t *tracedShards) Len() int {
	start := t.rec.now()
	n := t.inner.Len()
	t.span("frontier.len", start, 1)
	return n
}

func (t *tracedShards) URLs() []string {
	start := t.rec.now()
	urls := t.inner.URLs()
	t.span("frontier.urls", start, len(urls))
	return urls
}

func (t *tracedShards) Peek() (frontier.Entry, bool) {
	start := t.rec.now()
	e, ok := t.inner.Peek()
	t.span("frontier.peek", start, 1)
	return e, ok
}

func (t *tracedShards) NextEvent() (float64, bool) {
	start := t.rec.now()
	at, ok := t.inner.NextEvent()
	t.span("frontier.next_event", start, 1)
	return at, ok
}

// roundApplier mirrors the engine's optional fast-path interface.
type roundApplier interface {
	ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool)
}

// ApplyRound forwards the fast path; an inner set without one refuses
// it (ok false), which sends the engine down the plain ops exactly as
// the missing method would.
func (t *tracedShards) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool) {
	ra, ok := t.inner.(roundApplier)
	if !ok {
		return nil, frontier.Entry{}, false, false
	}
	start := t.rec.now()
	cands, bound, boundOK, ok := ra.ApplyRound(pops, removes, pushes, peekMax)
	t.span("frontier.apply_round", start, len(pops)+len(removes)+len(pushes))
	return cands, bound, boundOK, ok
}

func (t *tracedShards) Err() error {
	if e, ok := t.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (t *tracedShards) Rebalance() error {
	if r, ok := t.inner.(interface{ Rebalance() error }); ok {
		return r.Rebalance()
	}
	return nil
}

func (t *tracedShards) Epoch() uint64 {
	if e, ok := t.inner.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

func (t *tracedShards) WireBytes() (in, out int64) {
	if w, ok := t.inner.(interface{ WireBytes() (int64, int64) }); ok {
		return w.WireBytes()
	}
	return 0, 0
}

// tracedCollection is the store layer, wrapped around each collection
// generation; callers are the crawl and the request handlers alike, so
// each span's cause is looked up from the calling goroutine.
type tracedCollection struct {
	inner store.Collection
	rec   *recorder
}

var _ store.Collection = (*tracedCollection)(nil)

func (c *tracedCollection) span(name string, start int64, n int) {
	c.rec.add(name, c.rec.callerSpan(), start, n)
}

func (c *tracedCollection) Get(url string) (store.PageRecord, bool, error) {
	start := c.rec.now()
	rec, ok, err := c.inner.Get(url)
	c.span("store.get", start, 1)
	return rec, ok, err
}

func (c *tracedCollection) Len() int {
	start := c.rec.now()
	n := c.inner.Len()
	c.span("store.len", start, 1)
	return n
}

func (c *tracedCollection) URLs() []string {
	start := c.rec.now()
	urls := c.inner.URLs()
	c.span("store.urls", start, len(urls))
	return urls
}

func (c *tracedCollection) Scan(fn func(store.PageRecord) bool) error {
	start := c.rec.now()
	n := 0
	err := c.inner.Scan(func(r store.PageRecord) bool { n++; return fn(r) })
	c.span("store.scan", start, n)
	return err
}

func (c *tracedCollection) ScanFrom(after string, fn func(store.PageRecord) bool) error {
	start := c.rec.now()
	n := 0
	err := c.inner.ScanFrom(after, func(r store.PageRecord) bool { n++; return fn(r) })
	c.span("store.scan_from", start, n)
	return err
}

func (c *tracedCollection) Put(rec store.PageRecord) error {
	start := c.rec.now()
	err := c.inner.Put(rec)
	c.span("store.put", start, 1)
	return err
}

func (c *tracedCollection) PutBatch(recs []store.PageRecord) error {
	start := c.rec.now()
	err := c.inner.PutBatch(recs)
	c.span("store.put_batch", start, len(recs))
	return err
}

func (c *tracedCollection) Delete(url string) error {
	start := c.rec.now()
	err := c.inner.Delete(url)
	c.span("store.delete", start, 1)
	return err
}

func (c *tracedCollection) Close() error {
	start := c.rec.now()
	err := c.inner.Close()
	c.span("store.close", start, 1)
	return err
}

// tracedSource is the serve.Source layer: the per-request resolution
// of the reader and its generation.
type tracedSource struct {
	inner serve.Source
	rec   *recorder
}

func (s tracedSource) View() (store.Reader, uint64) {
	start := s.rec.now()
	r, gen := s.inner.View()
	s.rec.add("serve.view", s.rec.callerSpan(), start, 1)
	return r, gen
}

// tracedHandler is serve.Server seen as an http.Handler: one span per
// request, the parent of the store and Source calls made while serving
// it. N carries the client's request number (reqHeader), so the
// client-side latency can be split into handler time and HTTP
// overhead.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
}

// reqHeader carries the generator's request number to the handler.
const reqHeader = "X-Bench-Req"

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.Header.Get(reqHeader))
	id := h.rec.nextID.Add(1)
	g := goid()
	h.rec.reqSpan.Store(g, id)
	h.rec.inflight.Add(1)
	start := h.rec.now()
	h.inner.ServeHTTP(w, r)
	end := h.rec.now()
	h.rec.inflight.Add(-1)
	h.rec.reqSpan.Delete(g)
	h.rec.mu.Lock()
	h.rec.spans = append(h.rec.spans, span{ID: id, Name: "serve.handler", Start: start, End: end, N: n})
	h.rec.mu.Unlock()
}
