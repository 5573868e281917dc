// Command perfbench is the crawl-and-serve benchmark: it drives the
// crawler, its frontier and store, and the serving plane through their
// public APIs from one load process, and prints one JSON result line.
// See README.md for the workloads and metrics; run.sh builds it and
// the daemons it starts.
//
//	perfbench -bin DIR -work DIR --workload crawl-local --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// webs is how many simulated webs one run crawls, each from its own
// seed derived from --seed. Crawl cost depends on the web, so a run
// reports over a fixed suite of webs rather than one, which keeps one
// unlucky web from deciding the run's figures.
const webs = 4

// webSeed is the seed of web k of a run.
func webSeed(seed int64, k int) int64 { return seed*webs + int64(k) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: crawl-local, crawl-cluster or serve-live")
	seed := flag.Int64("seed", 1, "seed of the simulated web and the request stream")
	seconds := flag.Float64("seconds", 25, "crawl wall time to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	bin := flag.String("bin", "", "directory holding the shardd and storerd binaries")
	work := flag.String("work", "", "directory for daemon data, store generations and span files")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, w, *seed, *seconds, *trace == 1, *bin, *work)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run crawls the run's webs in turn until --seconds of crawl time are
// measured and every web was crawled, then reports. A traced run
// crawls each web twice in a row, untraced then traced, and at least
// two webs: the untraced crawls give the counters and the baseline for
// the tracing overhead, the traced ones the spans.
func run(ctx context.Context, w workload, seed int64, seconds float64, traced bool, bin, work string) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	begun := time.Now()
	start := daemonPlane(bin)
	perWeb, minCrawls := 1, webs
	var rec *recorder
	if traced {
		perWeb, minCrawls = 2, 4
		rec = newRecorder()
	}
	var plain, withSpans []crawlResult
	var measured float64
	for i := 0; measured < seconds || i < minCrawls || i%perWeb != 0; i++ {
		k := (i / perWeb) % webs
		var r *recorder
		if traced && i%2 == 1 {
			r = rec
		}
		res, err := runCrawl(ctx, w, fullSize, webSeed(seed, k), work, start, r)
		if err != nil {
			return nil, fmt.Errorf("%s crawl %d (web %d): %w", w.name, i+1, k, err)
		}
		res.web = k
		measured += res.crawl.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: crawl %d web %d traced=%v: set-up %.3fs, %d fetches in %.3fs (%.0f pages/s), %d reads, window p50 %.3fms p99 %.3fms\n",
			i+1, k, r != nil, res.setup.Seconds(), res.fetches, res.crawl.Seconds(), float64(res.fetches)/res.crawl.Seconds(), res.reads.attempted,
			quantile(append([]float64(nil), res.windowMs...), 0.50), quantile(append([]float64(nil), res.windowMs...), 0.99))
		if r != nil {
			withSpans = append(withSpans, res)
		} else {
			plain = append(plain, res)
		}
	}
	out := &result{Correct: true, Metrics: make(map[string]metric)}
	first := make(map[int]crawlResult)
	var reads, failed, closed, evicted int64
	for _, c := range append(append([]crawlResult(nil), plain...), withSpans...) {
		out.Attempted += c.fetches + c.reads.attempted
		out.Failed += c.fetchErrors + c.reads.failed
		reads, failed, closed, evicted = reads+c.reads.attempted, failed+c.reads.failed, closed+c.reads.closed, evicted+c.reads.notFound
		// Every crawl of one web is the same deterministic crawl.
		if f, ok := first[c.web]; !ok {
			first[c.web] = c
			fmt.Fprintf(os.Stderr, "perfbench: %s web %d (seed %d): %d fetches, %d pages, digest %016x\n",
				w.name, c.web, webSeed(seed, c.web), c.fetches, c.pages, c.digest)
		} else if c.digest != f.digest || c.freshness != f.freshness || c.fetches != f.fetches {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: web %d crawled twice diverged: digest %016x/%016x freshness %v/%v fetches %d/%d\n",
				c.web, f.digest, c.digest, f.freshness, c.freshness, f.fetches, c.fetches)
		}
		for _, why := range c.reads.unexpected {
			out.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: read check failed:", why)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d reads, %d failed (%d store: closed), %d evicted 404s\n",
		reads, failed, closed, evicted)
	fmt.Fprintf(os.Stderr, "perfbench: %.1fs of crawl time in %.1fs\n", measured, time.Since(begun).Seconds())
	if !traced {
		endToEnd(out, plain)
		return out, nil
	}
	path := filepath.Join(work, "spans-"+w.name+".jsonl")
	var spans []span
	for _, c := range withSpans {
		spans = append(spans, c.spans...)
	}
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	perLayer(out, plain, withSpans)
	return out, nil
}

// daemonPlane starts crawl-cluster's servers as child daemons: shardd
// on the disk frontier tier with a resident budget a tenth of the
// collection, so the spill path runs, and storerd with disk-backed
// collections.
func daemonPlane(bin string) startPlane {
	return func(ctx context.Context, work string, sz size) (plane, error) {
		p := &daemons{}
		sd, err := startDaemon(ctx, filepath.Join(bin, "shardd"), work, "shardd", func(dir string) []string {
			return []string{"-shards", "32", "-frontier-dir", filepath.Join(dir, "frontier"),
				"-frontier-resident", fmt.Sprint(sz.collection / 10)}
		})
		if err != nil {
			return nil, err
		}
		p.shard = sd
		st, err := startDaemon(ctx, filepath.Join(bin, "storerd"), work, "storerd", func(dir string) []string {
			return []string{"-dir", filepath.Join(dir, "collections")}
		})
		if err != nil {
			sd.stop()
			return nil, err
		}
		p.store = st
		return p, nil
	}
}

type daemons struct{ shard, store *daemon }

func (p *daemons) shardAddr() string { return p.shard.addr }
func (p *daemons) storeAddr() string { return p.store.addr }

func (p *daemons) finish() (planeStats, error) {
	var ps planeStats
	text, err := p.shard.scrape()
	if err != nil {
		return ps, err
	}
	ps.resident = promSum(text, "webevolve_frontier_resident_entries")
	ps.spillBytes = promSum(text, "webevolve_frontier_spill_bytes")
	ps.storeDisk = p.store.diskBytes()
	for _, d := range []*daemon{p.shard, p.store} {
		mb, err := d.hwmMB()
		if err != nil {
			return ps, err
		}
		ps.rssMB += mb
	}
	return ps, nil
}

func (p *daemons) stop() {
	p.shard.stop()
	p.store.stop()
}
