package main

import (
	"fmt"
	"os"
	"strings"
)

// endToEnd reports what a user of the system sees, from untraced
// crawls: throughput, collection quality, how fast readers were
// served, memory and set-up time.
func endToEnd(out *result, crawls []crawlResult) {
	var setup, lat []float64
	for _, c := range crawls {
		setup = append(setup, c.setup.Seconds())
		lat = append(lat, c.windowMs...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve latency over %d closed-loop reads\n", len(lat))
	var fresh float64
	for _, web := range byWeb(crawls) {
		fresh += web[0].freshness / webs
	}
	out.Metrics["pages_per_s"] = metric{throughput(crawls), "1/s"}
	out.Metrics["freshness"] = metric{fresh, "fraction"}
	out.Metrics["serve_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	rss, err := vmHWM("self")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.Correct = false
	}
	out.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	out.Metrics["setup_s"] = metric{median(setup), "s"}
}

// throughput is pages per second of a typical crawl of the run: for
// each virtual day, the median over the crawls of the pages fetched
// that day and of the day's crawl time, summed over the days. The days
// of one crawl differ (ranking days cost several times the others),
// but a day costs much the same on every web of the suite, so a
// per-day median leaves out a day that a burst of host contention
// slowed, while the crawl it fell in still counts for the other days.
func throughput(crawls []crawlResult) float64 {
	var pages, secs float64
	for d := range crawls[0].daySecs {
		var n, t []float64
		for _, c := range crawls {
			n = append(n, float64(c.dayFetches[d]))
			t = append(t, c.daySecs[d])
		}
		pages += median(n)
		secs += median(t)
	}
	return pages / secs
}

// byWeb groups crawls by web, in web order.
func byWeb(crawls []crawlResult) [][]crawlResult {
	groups := make([][]crawlResult, webs)
	for _, c := range crawls {
		groups[c.web] = append(groups[c.web], c)
	}
	return groups
}

// perLayer reports the per-layer metrics: counters from the untraced
// crawls of the run (runtime, wire, daemon and serve counters) and
// span statistics from the traced ones.
func perLayer(out *result, plain, traced []crawlResult) {
	set := func(name, unit string, v float64) { out.Metrics[name] = metric{v, unit} }
	med := func(f func(c crawlResult) float64) float64 {
		var xs []float64
		for _, c := range plain {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	perPage := func(f func(c crawlResult) float64) float64 {
		return med(func(c crawlResult) float64 { return f(c) / float64(c.fetches) })
	}

	set("runtime.allocs_per_page", "count", perPage(func(c crawlResult) float64 { return c.rt.allocs }))
	set("runtime.gc_cpu_frac", "fraction", med(func(c crawlResult) float64 { return c.rt.gcCPU / c.rt.totalCPU }))
	// Crawls alternate untraced and traced on the same web, so the
	// overhead is the median over those pairs.
	var slowdown []float64
	for i := range traced {
		slowdown = append(slowdown, 1-plain[i].crawl.Seconds()/traced[i].crawl.Seconds())
	}
	set("obs.trace_overhead_frac", "fraction", median(slowdown))

	set("cluster.frontier_wire_bytes_per_page", "bytes", perPage(func(c crawlResult) float64 { return float64(c.wireFrontier) }))
	set("cluster.store_wire_bytes_per_page", "bytes", perPage(func(c crawlResult) float64 { return float64(c.wireStore) }))
	set("cluster.retries", "count", med(func(c crawlResult) float64 { return c.retries }))
	set("cluster.redials", "count", med(func(c crawlResult) float64 { return c.redials }))
	set("cluster.daemon_rss_mb", "MB", med(func(c crawlResult) float64 { return c.daemonRSS }))
	set("frontier.resident_entries", "count", med(func(c crawlResult) float64 { return c.resident }))
	set("frontier.spill_bytes", "bytes", med(func(c crawlResult) float64 { return c.spillBytes }))
	set("store.disk_bytes_per_page", "bytes", perPage(func(c crawlResult) float64 { return float64(c.storeDisk) }))
	set("serve.cache_hit_ratio", "fraction", med(func(c crawlResult) float64 { return c.cacheHitRatio }))
	set("serve.not_modified_ratio", "fraction", med(func(c crawlResult) float64 { return c.notModifiedRatio }))
	set("serve.generator_lag_ms_max", "ms", med(func(c crawlResult) float64 { return c.liveLagMs }))
	var live []float64
	for _, c := range plain {
		live = append(live, c.liveMs...)
	}
	set("serve.live_p50_ms", "ms", quantile(append([]float64(nil), live...), 0.50))
	set("serve.live_p99_ms", "ms", quantile(live, 0.99))
	var window []float64
	for _, c := range plain {
		window = append(window, c.windowMs...)
	}
	set("serve.read_p99_ms", "ms", quantile(window, 0.99))
	var attempted, failed, notFound float64
	for _, c := range plain {
		attempted += float64(c.reads.attempted)
		failed += float64(c.reads.failed)
		notFound += float64(c.reads.notFound)
	}
	set("serve.failed_ratio", "fraction", ratio(failed, attempted))
	set("serve.evicted_404_ratio", "fraction", ratio(notFound, attempted))

	s := spanStats(traced)
	kpages := s.pages / 1000
	set("frontier.apply_round.calls_per_kpage", "count", float64(len(s.applyRoundUs))/kpages)
	set("frontier.apply_round.us_p50", "us", quantile(s.applyRoundUs, 0.50))
	set("frontier.apply_round.us_p99", "us", quantile(s.applyRoundUs, 0.99))
	set("frontier.busy_ms_per_kpage", "ms", s.frontierBusyMs/kpages)
	set("frontier.fallback_calls_per_kpage", "count", s.fallbackCalls/kpages)
	set("core.self_ms_per_kpage", "ms", s.selfMs/kpages)
	set("core.run_until_ms_per_kpage", "ms", s.runMs/kpages)
	set("core.child_union_ms_per_kpage", "ms", s.childUnionMs/kpages)
	set("fetch.calls", "count", s.fetchCalls/float64(len(traced)))
	set("fetch.busy_ms_per_kpage", "ms", s.fetchBusyMs/kpages)
	var fetchErrors float64
	for _, c := range traced {
		fetchErrors += float64(c.fetchErrors)
	}
	set("fetch.errors", "count", fetchErrors)
	set("store.put_batch.us_p50", "us", quantile(s.putBatchUs, 0.50))
	set("store.put_batch.us_p99", "us", quantile(s.putBatchUs, 0.99))
	set("store.busy_ms_per_kpage", "ms", s.storeBusyMs/kpages)
	set("store.get.us_p50", "us", quantile(s.getUs, 0.50))
	set("store.get.us_p99", "us", quantile(s.getUs, 0.99))
	set("store.scan_from.us_p99", "us", quantile(s.scanFromUs, 0.99))
	set("serve.handler.us_p50", "us", quantile(s.handlerUs, 0.50))
	set("serve.handler.us_p99", "us", quantile(s.handlerUs, 0.99))
	set("serve.http_overhead.us_p50", "us", quantile(s.overheadUs, 0.50))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerSpans is what the traced crawls' spans add up to.
type layerSpans struct {
	pages                         float64
	runMs, childUnionMs, selfMs   float64
	fetchCalls, fetchBusyMs       float64
	frontierBusyMs, fallbackCalls float64
	storeBusyMs                   float64
	applyRoundUs, putBatchUs      []float64
	getUs, scanFromUs             []float64
	handlerUs, overheadUs         []float64
}

// spanStats attributes each span to its layer by name and to the crawl
// or a request by its parent. The crawl's child spans are the fetch,
// frontier and store calls RunUntil made; core's self time is
// RunUntil's wall time minus the union of those children, which
// covers the scheduler, ranking and dispatch that have no interface to
// wrap.
func spanStats(traced []crawlResult) layerSpans {
	var s layerSpans
	for _, c := range traced {
		s.pages += float64(c.fetches)
		runs := make(map[uint64]*runSpan)
		handlers := make(map[uint64]bool)
		for _, sp := range c.spans {
			switch sp.Name {
			case "core.run_until":
				runs[sp.ID] = &runSpan{span: sp}
			case "serve.handler":
				handlers[sp.ID] = true
			}
		}
		for _, sp := range c.spans {
			us := float64(sp.End-sp.Start) / 1e3
			ms := us / 1e3
			run := runs[sp.Parent]
			if run != nil {
				run.children = append(run.children, interval{sp.Start, sp.End})
			}
			switch {
			case sp.Name == "serve.handler":
				s.handlerUs = append(s.handlerUs, us)
				if sent, ok := c.reads.sendUs[sp.N]; ok {
					s.overheadUs = append(s.overheadUs, sent-us)
				}
			case run == nil && handlers[sp.Parent]:
				switch sp.Name {
				case "store.get":
					s.getUs = append(s.getUs, us)
				case "store.scan_from":
					s.scanFromUs = append(s.scanFromUs, us)
				}
			case run == nil:
				// Set-up, freshness sampling and teardown: not the crawl.
			case sp.Name == "fetch":
				s.fetchCalls++
				s.fetchBusyMs += ms
			case sp.Name == "frontier.apply_round":
				s.applyRoundUs = append(s.applyRoundUs, us)
				s.frontierBusyMs += ms
			case strings.HasPrefix(sp.Name, "frontier."):
				s.fallbackCalls++
				s.frontierBusyMs += ms
			case strings.HasPrefix(sp.Name, "store."):
				if sp.Name == "store.put_batch" {
					s.putBatchUs = append(s.putBatchUs, us)
				}
				s.storeBusyMs += ms
			}
		}
		for _, r := range runs {
			wall := r.span.End - r.span.Start
			union := unionLen(r.children, r.span.Start, r.span.End)
			s.runMs += float64(wall) / 1e6
			s.childUnionMs += float64(union) / 1e6
			s.selfMs += float64(wall-union) / 1e6
		}
	}
	return s
}

type runSpan struct {
	span     span
	children []interval
}
