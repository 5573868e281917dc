package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/serve"
)

// requestTimeout bounds one request. A failed request enters the
// latency percentiles at this value: it misses any limit below it.
const requestTimeout = time.Second

// listLimit is the page size of the listing requests.
const listLimit = 50

// mix is a request mix: the shares of page GETs, If-None-Match
// revalidations and paged listings (the rest).
type mix struct{ get, revalidate float64 }

// readerStats is what the generator saw, summed over senders.
type readerStats struct {
	attempted  int64
	failed     int64 // error responses and transport failures
	closed     int64 // of failed: the known "store: closed" responses
	unexpected []string
	notFound   int64 // 404s: pages evicted since the URL list was taken
	latMs      []float64
	// sendUs maps a request number to its send-to-response time, for
	// the HTTP-overhead split against the handler span; kept only for
	// traced crawls, whose memory peak_rss_mb does not report.
	sendUs map[int]float64
	lagMs  float64 // largest delay between a request's due and send time
}

func (s *readerStats) merge(o *readerStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.closed += o.closed
	s.unexpected = append(s.unexpected, o.unexpected...)
	s.notFound += o.notFound
	s.latMs = append(s.latMs, o.latMs...)
	for k, v := range o.sendUs {
		if s.sendUs == nil {
			s.sendUs = make(map[int]float64)
		}
		s.sendUs[k] = v
	}
	s.lagMs = max(s.lagMs, o.lagMs)
}

// generator is the reader. Each sender owns one keep-alive connection.
// In an open-loop segment request i is due at start + i/rate whatever
// happened to earlier requests, and a sender takes the next due
// request when it is free, so a stall delays later requests and their
// latency, timed from the due time, shows it. In a closed-loop segment
// each sender sends its next request as soon as the last one is
// answered, and latency is timed from the send.
type generator struct {
	base    string
	mix     mix
	content bool // pages carry bodies (StoreContent)
	traced  bool // keep sendUs
	senders []*sender

	urls atomic.Pointer[[]string] // hot-first URL order; nil: no reads yet
	seq  atomic.Int64             // request numbers across segments

	// Per segment.
	t0     time.Time
	next   atomic.Int64
	stopAt atomic.Int64 // UnixNano; 0 while running
	stopCh chan struct{}
	wg     sync.WaitGroup
}

type sender struct {
	client *http.Client
	rng    *rand.Rand
	etags  map[string]string
	stats  readerStats
}

func newGenerator(base string, conns int, m mix, content, traced bool, seed int64) *generator {
	g := &generator{base: base, mix: m, content: content, traced: traced}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		g.senders = append(g.senders, &sender{
			client: &http.Client{Transport: tr, Timeout: requestTimeout},
			rng:    rand.New(rand.NewSource(seed*7919 + int64(i))),
			etags:  make(map[string]string),
		})
	}
	return g
}

// setURLs installs the live collection's URLs, ordered hottest first
// by a seeded hash so the popular pages stay popular across refreshes.
func (g *generator) setURLs(urls []string, seed int64) {
	if len(urls) == 0 {
		g.urls.Store(nil)
		return
	}
	type keyed struct {
		h uint64
		u string
	}
	ks := make([]keyed, len(urls))
	for i, u := range urls {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", seed, u)
		ks[i] = keyed{h.Sum64(), u}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].h < ks[j].h })
	order := make([]string, len(ks))
	for i, k := range ks {
		order[i] = k.u
	}
	g.urls.Store(&order)
}

// start begins a segment: open loop at rate requests per second, or
// closed loop when rate is 0.
func (g *generator) start(rate float64) {
	g.t0 = time.Now()
	g.next.Store(0)
	g.stopAt.Store(0)
	g.stopCh = make(chan struct{})
	if g.urls.Load() == nil {
		return
	}
	for _, s := range g.senders {
		g.wg.Add(1)
		go func(s *sender) {
			defer g.wg.Done()
			if rate > 0 {
				g.openLoop(s, rate)
			} else {
				g.closedLoop(s)
			}
		}(s)
	}
}

// stop ends the segment: requests due before now are still sent, the
// rest are not (open loop); no new request is sent (closed loop). It
// returns once every sender is idle.
func (g *generator) stop() {
	g.stopAt.Store(time.Now().UnixNano())
	close(g.stopCh)
	g.wg.Wait()
}

func (g *generator) closedLoop(s *sender) {
	urls := *g.urls.Load()
	for g.stopAt.Load() == 0 {
		g.request(s, urls, time.Now())
	}
}

func (g *generator) openLoop(s *sender, rate float64) {
	period := float64(time.Second) / rate
	urls := *g.urls.Load()
	for {
		i := g.next.Add(1) - 1
		due := g.t0.Add(time.Duration(float64(i) * period))
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-g.stopCh:
				t.Stop()
			}
		}
		if at := g.stopAt.Load(); at != 0 && due.UnixNano() >= at {
			return
		}
		s.stats.lagMs = max(s.stats.lagMs, float64(time.Since(due))/1e6)
		g.request(s, urls, due)
	}
}

// pick draws a URL, Zipf-skewed over the hot-first order.
func pick(rng *rand.Rand, urls []string) string {
	if len(urls) == 1 {
		return urls[0]
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(urls)-1))
	return urls[z.Uint64()]
}

// request sends one request of the mix and checks its response.
func (g *generator) request(s *sender, urls []string, due time.Time) {
	n := int(g.seq.Add(1))
	u := pick(s.rng, urls)
	var target, etag string
	list := false
	switch r := s.rng.Float64(); {
	case r < g.mix.get:
		target = g.base + "/v1/pages/" + url.PathEscape(u)
	case r < g.mix.get+g.mix.revalidate:
		target = g.base + "/v1/pages/" + url.PathEscape(u)
		etag = s.etags[u]
	default:
		list = true
		target = g.base + "/v1/pages?limit=" + strconv.Itoa(listLimit) + "&after=" + url.QueryEscape(u)
	}
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		panic(err) // the URLs are the crawler's own absolute URLs
	}
	req.Header.Set(reqHeader, strconv.Itoa(n))
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	s.stats.attempted++
	sent := time.Now()
	resp, err := s.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	fail := func(why string) {
		s.stats.failed++
		s.stats.latMs = append(s.stats.latMs, float64(requestTimeout)/1e6)
		if strings.Contains(why, "store: closed") {
			s.stats.closed++
			return
		}
		if len(s.stats.unexpected) < 5 {
			s.stats.unexpected = append(s.stats.unexpected, why)
		}
	}
	if err != nil {
		fail(err.Error())
		return
	}
	if g.traced {
		if s.stats.sendUs == nil {
			s.stats.sendUs = make(map[int]float64)
		}
		s.stats.sendUs[n] = float64(end.Sub(sent)) / 1e3
	}
	ok := true
	switch {
	case resp.StatusCode == http.StatusNotFound && !list:
		s.stats.notFound++
		delete(s.etags, u)
	case resp.StatusCode == http.StatusNotModified && etag != "":
	case resp.StatusCode == http.StatusOK && list:
		if why := checkListing(body, u); why != "" {
			fail(why)
			ok = false
		}
	case resp.StatusCode == http.StatusOK:
		tag := resp.Header.Get("ETag")
		if why := g.checkPage(body, u, tag, resp.Header.Get("X-Webevolve-Checksum")); why != "" {
			fail(why)
			ok = false
		} else {
			s.etags[u] = tag
		}
	default:
		fail(fmt.Sprintf("%s: HTTP %d: %s", target, resp.StatusCode, bytes.TrimSpace(body)))
		ok = false
	}
	if ok {
		s.stats.latMs = append(s.stats.latMs, float64(end.Sub(due))/1e6)
	}
}

// checkPage verifies a served page against the checksum its ETag
// names. Simulated pages render their own URL and checksum into the
// body, so a body from another page or another version is caught; a
// collection stored without content serves empty bodies.
func (g *generator) checkPage(body []byte, u, etag, sumHeader string) string {
	sum, err := strconv.Unquote(etag)
	if err != nil || sum != sumHeader {
		return fmt.Sprintf("%s: ETag %q disagrees with checksum header %q", u, etag, sumHeader)
	}
	if !g.content {
		if len(body) != 0 {
			return fmt.Sprintf("%s: %d-byte body from a collection stored without content", u, len(body))
		}
		return ""
	}
	v, err := strconv.ParseUint(sum, 16, 64)
	if err != nil {
		return fmt.Sprintf("%s: ETag %q is not a checksum", u, etag)
	}
	if !bytes.Contains(body, []byte("<title>"+u+" v")) ||
		!bytes.Contains(body, []byte(fmt.Sprintf("checksum %016x<", v))) {
		return fmt.Sprintf("%s: body does not match ETag %s", u, etag)
	}
	return ""
}

// checkListing verifies a listing page: at most listLimit pages, in
// strictly ascending URL order, all after the cursor.
func checkListing(body []byte, after string) string {
	var pl serve.PageList
	if err := json.Unmarshal(body, &pl); err != nil {
		return fmt.Sprintf("listing after %s: %v", after, err)
	}
	if pl.Count != len(pl.Pages) || pl.Count > listLimit {
		return fmt.Sprintf("listing after %s: count %d for %d pages", after, pl.Count, len(pl.Pages))
	}
	prev := after
	for _, p := range pl.Pages {
		if p.URL <= prev {
			return fmt.Sprintf("listing after %s: %s out of order", after, p.URL)
		}
		prev = p.URL
	}
	return ""
}

// results drains the senders' statistics.
func (g *generator) results() readerStats {
	var out readerStats
	for _, s := range g.senders {
		out.merge(&s.stats)
		s.stats = readerStats{}
	}
	return out
}

func (g *generator) close() {
	for _, s := range g.senders {
		s.client.CloseIdleConnections()
	}
}
