package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/obs"
	"webevolve/internal/serve"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
)

// size is the scale of a crawl: the simulated web, the collection the
// crawler keeps, its bandwidth and how many virtual days one crawl
// runs.
type size struct {
	sitesPerDomain map[simweb.Domain]int
	pagesPerSite   int
	collection     int
	pagesPerDay    float64
	days           int
}

// fullSize is the benchmark's scale: the paper's 270 sites (Table 1
// domain mix) with 100 pages each, a 20k-page collection, and a
// bandwidth that revisits it every ~6 days.
var fullSize = size{
	sitesPerDomain: simweb.PaperSitesPerDomain,
	pagesPerSite:   100,
	collection:     20000,
	pagesPerDay:    3500,
	days:           8,
}

// workload is one benchmark workload. Every workload crawls the same
// kind of web with the same steady, variable-frequency, EP-estimator
// crawler from the web's site roots, and an open-loop reader reads the
// collection over HTTP; they differ in where the frontier and store
// live and in when and how hard the collection is read.
type workload struct {
	name string
	// cluster puts the frontier on a disk-tier shardd and the store on
	// a disk storerd, both child processes reached over TCP loopback.
	cluster bool
	// live crawls into shadow generations swapped in every cycleDays,
	// kept on local disk with page bodies (StoreContent), serves them
	// with the hot-set cache on, and reads at liveRate while it crawls:
	// reads beside the writes and across the swaps. Otherwise the
	// crawl is in place and the cache off.
	live      bool
	liveRate  float64 // requests per second during the crawl
	cycleDays float64
	readConns int
	readMix   mix
}

// readWindow is how long the reader reads, closed loop, after each
// virtual day with the crawl stopped. These reads give the end-to-end
// latency: beside a crawl that keeps both cores busy, latency times
// the Go scheduler and GC more than the serving path, and varies too
// much from run to run to bound a regression.
const readWindow = 50 * time.Millisecond

// The workloads; README.md gives the reason for each.
var workloads = []workload{
	{
		// In-memory frontier and store, zero-latency fetches: frontier
		// peeks, scheduling rebuilds and GC do the work.
		name:      "crawl-local",
		cycleDays: 10,
		readConns: 1,
		readMix:   mix{get: 1},
	},
	{
		// The same crawl against a disk-tier shardd and a disk storerd:
		// the wire codec, spill log and store record codec do the work.
		name:      "crawl-cluster",
		cluster:   true,
		cycleDays: 10,
		readConns: 1,
		readMix:   mix{get: 1},
	},
	{
		// A shadow crawl into disk generations swapped every virtual
		// day, read meanwhile: the serve cache, its flush on swap and
		// the store read paths beside the writes.
		name:      "serve-live",
		live:      true,
		liveRate:  400,
		cycleDays: 1,
		readConns: 2,
		readMix:   mix{get: 0.8, revalidate: 0.15},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// webConfig is the simulated web a seed selects.
func (sz size) webConfig(seed int64) simweb.Config {
	return simweb.Config{Seed: seed, SitesPerDomain: sz.sitesPerDomain, PagesPerSite: sz.pagesPerSite}
}

// crawlConfig is the crawler configuration of a workload; Seeds and
// Frontier are filled in per crawl.
func (w workload) crawlConfig(sz size) core.Config {
	cfg := core.Config{
		CollectionSize: sz.collection,
		PagesPerDay:    sz.pagesPerDay,
		CycleDays:      w.cycleDays,
		RankEveryDays:  2,
		Mode:           core.Steady,
		Update:         core.InPlace,
		Freq:           core.VariableFreq,
		Estimator:      core.EstimatorEP,
		Workers:        2,
		Shards:         32,
	}
	if w.live {
		cfg.Update = core.Shadow
		cfg.StoreContent = true
	}
	return cfg
}

// plane is where crawl-cluster's frontier and store servers run: child
// daemons in the benchmark, in-process servers in the tests.
type plane interface {
	shardAddr() string
	storeAddr() string
	// finish reads the servers' counters at the end of a crawl.
	finish() (planeStats, error)
	stop()
}

type planeStats struct {
	resident   float64 // frontier entries in RAM
	spillBytes float64 // frontier spill log bytes
	rssMB      float64 // summed peak RSS of the server processes
	storeDisk  int64   // store bytes on disk
}

// startPlane starts a crawl-cluster's servers.
type startPlane func(ctx context.Context, work string, sz size) (plane, error)

// crawlResult is what one crawl measured and produced.
type crawlResult struct {
	web   int // which of the run's webs
	setup time.Duration
	crawl time.Duration // summed RunUntil wall time
	// dayFetches and daySecs are each virtual day's fetches and
	// RunUntil wall time.
	dayFetches []int64
	daySecs    []float64
	fetches    int64
	freshness  float64
	digest     uint64
	pages      int

	wireFrontier, wireStore int64 // during RunUntil, both directions
	rt                      runtimeSample
	retries, redials        float64
	resident, spillBytes    float64
	daemonRSS               float64
	storeDisk               int64
	cacheHitRatio           float64
	notModifiedRatio        float64
	reads                   readerStats
	// windowMs and liveMs are the latencies of the reads made after
	// each day and during the crawl; liveLagMs is the open-loop
	// generator's largest lateness.
	windowMs, liveMs []float64
	liveLagMs        float64
	fetchErrors      int64
	spans            []span
}

// runCrawl sets up one crawl of workload w, runs it for sz.days virtual
// days while the reader reads, checks it, and tears everything down.
// rec is nil for an untraced crawl.
func runCrawl(ctx context.Context, w workload, sz size, seed int64, work string, start startPlane, rec *recorder) (res crawlResult, err error) {
	// Every crawl starts from a collected heap, as in a fresh process,
	// so the last crawl's garbage is not set-up or crawl time.
	runtime.GC()
	t0 := time.Now()
	web, err := simweb.New(sz.webConfig(seed))
	if err != nil {
		return res, err
	}
	sim := fetch.NewSimFetcher(web)
	sim.WithContent = w.live
	var fetcher fetch.Fetcher = sim
	cfg := w.crawlConfig(sz)
	cfg.Seeds = web.RootURLs()

	var (
		local      *frontier.Sharded
		remote     *cluster.RemoteShards
		remoteSt   *cluster.RemoteStore
		readerSt   *cluster.RemoteStore
		pl         plane
		storeDir   string
		newGen     func() (store.Collection, error)
		generation int
	)
	if w.cluster {
		if pl, err = start(ctx, work, sz); err != nil {
			return res, err
		}
		defer pl.stop()
		if remote, err = cluster.DialTCP([]string{pl.shardAddr()}, cluster.Options{PolitenessDays: 0}); err != nil {
			return res, err
		}
		defer remote.Close()
		if remoteSt, err = cluster.DialStoreTCP(pl.storeAddr(), cluster.Options{}); err != nil {
			return res, err
		}
		defer remoteSt.Close()
		// Readers get a connection of their own, so the crawl's wire
		// bytes count only the crawl.
		if readerSt, err = cluster.DialStoreTCP(pl.storeAddr(), cluster.Options{}); err != nil {
			return res, err
		}
		defer readerSt.Close()
		cfg.Frontier = remote
		newGen = func() (store.Collection, error) {
			generation++
			return remoteSt.EphemeralCollection(genName(generation)), nil
		}
	} else {
		local = frontier.NewSharded(cfg.Shards)
		cfg.Frontier = local
		newGen = func() (store.Collection, error) { return store.NewMem(), nil }
		if w.live {
			if storeDir, err = os.MkdirTemp(work, "store-"); err != nil {
				return res, err
			}
			defer os.RemoveAll(storeDir)
			newGen = func() (store.Collection, error) {
				generation++
				dir := filepath.Join(storeDir, genName(generation))
				d, err := store.OpenDisk(dir)
				if err != nil {
					return nil, err
				}
				return retiredDisk{d, dir}, nil
			}
		}
	}
	if rec != nil {
		traced := &tracedFetcher{inner: fetcher, rec: rec}
		defer func() { res.fetchErrors = traced.errors.Load() }()
		fetcher = traced
		cfg.Frontier = &tracedShards{inner: cfg.Frontier, rec: rec}
		plain := newGen
		newGen = func() (store.Collection, error) {
			c, err := plain()
			if err != nil {
				return nil, err
			}
			return &tracedCollection{inner: c, rec: rec}, nil
		}
	}
	sh, err := store.NewShadowed(nil, newGen)
	if err != nil {
		return res, err
	}
	defer sh.Close()
	crawler, err := core.NewWithStore(cfg, fetcher, sh)
	if err != nil {
		return res, err
	}
	defer crawler.Close()

	// The serving plane over the live collection. In place, the
	// collection changes under a constant generation, so the hot-set
	// cache would serve stale pages and stays off (as storerd -serve
	// runs it); shadow generations key the cache.
	var src serve.Source = sh
	if w.cluster {
		// In place, the first generation is the collection readers see.
		var coll store.Collection = readerSt.Collection(genName(1))
		if rec != nil {
			coll = &tracedCollection{inner: coll, rec: rec}
		}
		src = serve.Static(coll)
	}
	if rec != nil {
		src = tracedSource{inner: src, rec: rec}
	}
	scfg := serve.Config{Source: src, Metrics: obs.NewRegistry(), CacheEntries: -1}
	if w.live {
		scfg.CacheEntries = 0 // the default size
	}
	var handler http.Handler = serve.New(scfg)
	if rec != nil {
		handler = tracedHandler{inner: handler, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed at Close
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	gen := newGenerator(base, w.readConns, w.readMix, w.live, rec != nil, seed)
	defer gen.close()
	res.setup = time.Since(t0)

	before, err := obsText()
	if err != nil {
		return res, err
	}
	ev := &core.Evaluator{Web: web}
	var fresh float64
	for day := 1; day <= sz.days; day++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if w.live {
			gen.start(w.liveRate)
		}
		f0, s0 := frontierWire(remote), storeWire(remoteSt)
		rt0 := readRuntime()
		n0 := crawler.Metrics().Fetches
		t := time.Now()
		err := crawlDay(crawler, rec, day)
		took := time.Since(t)
		res.crawl += took
		res.dayFetches = append(res.dayFetches, crawler.Metrics().Fetches-n0)
		res.daySecs = append(res.daySecs, took.Seconds())
		res.rt = res.rt.add(readRuntime().sub(rt0))
		res.wireFrontier += frontierWire(remote) - f0
		res.wireStore += storeWire(remoteSt) - s0
		if w.live {
			gen.stop()
			live := gen.results()
			res.liveMs = append(res.liveMs, live.latMs...)
			res.liveLagMs = max(res.liveLagMs, live.lagMs)
			live.latMs = nil
			res.reads.merge(&live)
		}
		if err != nil {
			return res, fmt.Errorf("crawl to day %d: %w", day, err)
		}
		// Outside the timed section: freshness against the oracle, and
		// the URLs the readers draw from.
		f, err := ev.Freshness(crawler.Collection(), float64(day), cfg.CollectionSize)
		if err != nil {
			return res, fmt.Errorf("freshness at day %d: %w", day, err)
		}
		fresh += f
		gen.setURLs(crawler.Collection().URLs(), seed)
		gen.start(0)
		time.Sleep(readWindow)
		gen.stop()
		window := gen.results()
		res.windowMs = append(res.windowMs, window.latMs...)
		window.latMs = nil
		res.reads.merge(&window)
	}
	if remote != nil {
		if err := remote.Err(); err != nil {
			return res, fmt.Errorf("frontier: %w", err)
		}
	}
	if remoteSt != nil {
		if err := remoteSt.Err(); err != nil {
			return res, fmt.Errorf("store: %w", err)
		}
	}
	res.fetches = crawler.Metrics().Fetches
	res.freshness = fresh / float64(sz.days)
	if res.digest, res.pages, err = digest(crawler.Collection()); err != nil {
		return res, err
	}
	if err := readServeStats(base, &res); err != nil {
		return res, err
	}
	after, err := obsText()
	if err != nil {
		return res, err
	}
	res.retries = promSum(after, "webevolve_cluster_client_retries_total") - promSum(before, "webevolve_cluster_client_retries_total")
	res.redials = promSum(after, "webevolve_cluster_client_redials_total") - promSum(before, "webevolve_cluster_client_redials_total")
	switch {
	case pl != nil:
		ps, err := pl.finish()
		if err != nil {
			return res, err
		}
		res.resident, res.spillBytes, res.daemonRSS, res.storeDisk = ps.resident, ps.spillBytes, ps.rssMB, ps.storeDisk
	default:
		tier := local.Tier()
		res.resident, res.spillBytes = float64(tier.Resident), float64(tier.SpillBytes)
		if storeDir != "" {
			res.storeDisk = dirBytes(storeDir)
		}
	}
	if rec != nil {
		res.spans = rec.take()
	}
	return res, nil
}

// crawlDay runs the crawl through virtual day day, as one traced
// RunUntil span when rec is set.
func crawlDay(c *core.Crawler, rec *recorder, day int) error {
	if rec != nil {
		return rec.runUntil(func() error { return c.RunUntil(float64(day)) })
	}
	return c.RunUntil(float64(day))
}

func genName(n int) string { return fmt.Sprintf("gen-%d", n) }

// retiredDisk is a disk generation whose files go when it is retired,
// so a run keeps at most the current and shadow generations on disk.
type retiredDisk struct {
	*store.Disk
	dir string
}

func (d retiredDisk) Close() error {
	err := d.Disk.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// frontierWire is the frontier client's wire bytes, both directions.
func frontierWire(rs *cluster.RemoteShards) int64 {
	if rs == nil {
		return 0
	}
	in, out := rs.WireBytes()
	return in + out
}

// storeWire is the store client's wire bytes, both directions.
func storeWire(rs *cluster.RemoteStore) int64 {
	if rs == nil {
		return 0
	}
	in, out := rs.WireBytes()
	return in + out
}

// digest hashes the collection's records in URL order: two crawls that
// stored the same pages at the same versions and times agree.
func digest(c store.Reader) (uint64, int, error) {
	h := fnv.New64a()
	n := 0
	err := c.Scan(func(r store.PageRecord) bool {
		n++
		fmt.Fprintf(h, "%s %x %x %d\n", r.URL, r.Checksum, math.Float64bits(r.FetchedAt), r.Version)
		return true
	})
	return h.Sum64(), n, err
}

// obsText is the load process's own metric exposition.
func obsText() ([]byte, error) {
	var b bytes.Buffer
	err := obs.Default.WritePrometheus(&b)
	return b.Bytes(), err
}

// readServeStats reads the server's counters from /v1/stats.
func readServeStats(base string, res *crawlResult) error {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	if st.Cache != nil && st.Cache.Hits+st.Cache.Misses > 0 {
		res.cacheHitRatio = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
	}
	if st.Requests > 0 {
		res.notModifiedRatio = float64(st.NotModified) / float64(st.Requests)
	}
	return nil
}
