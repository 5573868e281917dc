package main

import (
	"bufio"
	"bytes"
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/frontier"
	"webevolve/internal/simweb"
)

// testSize is a reduced crawl: 17 sites of 40 pages, a 500-page
// collection, six virtual days.
var testSize = size{
	sitesPerDomain: map[simweb.Domain]int{simweb.Com: 8, simweb.Edu: 5, simweb.NetOrg: 2, simweb.Gov: 2},
	pagesPerSite:   40,
	collection:     500,
	pagesPerDay:    100,
	days:           6,
}

// inProcessPlane runs crawl-cluster's servers in the test process: the
// shardd and storerd code paths (disk frontier tier with a small
// resident budget, disk store), listening on loopback TCP.
type inProcessPlane struct {
	q      *frontier.Sharded
	shards *cluster.ShardServer
	stores *cluster.StoreServer
}

func startInProcessPlane(_ context.Context, work string, sz size) (plane, error) {
	q, err := frontier.OpenSharded(frontier.StoreConfig{
		Shards: 32, SpillDir: filepath.Join(work, "frontier"), ResidentBudget: sz.collection / 10,
	})
	if err != nil {
		return nil, err
	}
	p := &inProcessPlane{q: q, shards: cluster.NewShardServer(q), stores: cluster.NewDiskStoreServer(filepath.Join(work, "store"))}
	if err := p.shards.Listen("127.0.0.1:0"); err != nil {
		p.stop()
		return nil, err
	}
	if err := p.stores.Listen("127.0.0.1:0"); err != nil {
		p.stop()
		return nil, err
	}
	go p.shards.Serve() // returns ErrServerClosed at stop
	go p.stores.Serve()
	return p, nil
}

func (p *inProcessPlane) shardAddr() string { return p.shards.Addr().String() }
func (p *inProcessPlane) storeAddr() string { return p.stores.Addr().String() }

func (p *inProcessPlane) finish() (planeStats, error) {
	t := p.q.Tier()
	return planeStats{resident: float64(t.Resident), spillBytes: float64(t.SpillBytes)}, nil
}

func (p *inProcessPlane) stop() {
	p.shards.Close()
	p.stores.Close()
	p.q.Close()
}

// frontierOps returns the frontier client's completed wire ops by op
// name, from the process registry.
func frontierOps(t *testing.T) map[string]float64 {
	t.Helper()
	text, err := obsText()
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), `webevolve_cluster_client_ops_total{op="`)
		if !ok {
			continue
		}
		op, val, _ := strings.Cut(rest, `"} `)
		if op == "hello" || strings.HasPrefix(op, "store") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", sc.Text(), err)
		}
		ops[op] = v
	}
	return ops
}

func delta(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64)
	for op, v := range after {
		if v != before[op] {
			d[op] = v - before[op]
		}
	}
	return d
}

// countSpans counts a traced crawl's frontier spans made inside
// RunUntil: ApplyRound calls and the plain ShardSet ops.
func countSpans(c crawlResult) (applyRound, fallback int) {
	runs := make(map[uint64]bool)
	for _, s := range c.spans {
		if s.Name == "core.run_until" {
			runs[s.ID] = true
		}
	}
	for _, s := range c.spans {
		switch {
		case !runs[s.Parent]:
		case s.Name == "frontier.apply_round":
			applyRound++
		case strings.HasPrefix(s.Name, "frontier."):
			fallback++
		}
	}
	return applyRound, fallback
}

// TestWrappersKeepTheCrawl pins the traced run to the program it
// measures, and crawl-local to crawl-cluster: the same web crawled
// locally and against the servers, each untraced and traced, yields
// one collection digest, fetch count and freshness. The layer
// wrappers forward the engine's optional interfaces: the traced
// cluster crawl sends exactly the untraced crawl's frontier wire ops,
// one round op per ApplyRound call, and the plain ShardSet calls that
// bypass ApplyRound are as many on both tiers.
func TestWrappersKeepTheCrawl(t *testing.T) {
	ctx := context.Background()
	var results []crawlResult
	var wireOps []map[string]float64
	for _, name := range []string{"crawl-local", "crawl-cluster"} {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, traced := range []bool{false, true} {
			var rec *recorder
			if traced {
				rec = newRecorder()
			}
			before := frontierOps(t)
			res, err := runCrawl(ctx, w, testSize, 7, t.TempDir(), startInProcessPlane, rec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.reads.unexpected) > 0 || res.reads.failed > 0 {
				t.Errorf("%s traced=%v: %d failed reads: %v", name, traced, res.reads.failed, res.reads.unexpected)
			}
			results = append(results, res)
			wireOps = append(wireOps, delta(frontierOps(t), before))
		}
	}
	base := results[0]
	if base.fetches == 0 || base.pages == 0 {
		t.Fatalf("empty crawl: %d fetches, %d pages", base.fetches, base.pages)
	}
	for i, r := range results[1:] {
		if r.digest != base.digest || r.fetches != base.fetches || r.freshness != base.freshness {
			t.Errorf("crawl %d: digest %016x, %d fetches, freshness %v; want %016x, %d, %v",
				i+2, r.digest, r.fetches, r.freshness, base.digest, base.fetches, base.freshness)
		}
	}
	if len(wireOps[0]) != 0 || len(wireOps[1]) != 0 {
		t.Errorf("local crawls sent frontier wire ops: %v %v", wireOps[0], wireOps[1])
	}
	plainOps, tracedOps := wireOps[2], wireOps[3]
	if len(plainOps) == 0 {
		t.Fatal("the cluster crawl sent no frontier wire ops")
	}
	for op, n := range plainOps {
		if tracedOps[op] != n {
			t.Errorf("op %s: traced crawl sent %v, untraced %v", op, tracedOps[op], n)
		}
	}
	for op := range tracedOps {
		if _, ok := plainOps[op]; !ok {
			t.Errorf("op %s: only the traced crawl sent it", op)
		}
	}
	localRounds, localFallback := countSpans(results[1])
	clusterRounds, clusterFallback := countSpans(results[3])
	if float64(clusterRounds) != plainOps["round"] || localRounds != clusterRounds {
		t.Errorf("ApplyRound calls: local %d, cluster %d; untraced cluster sent %v round ops",
			localRounds, clusterRounds, plainOps["round"])
	}
	if localFallback != clusterFallback {
		t.Errorf("plain ShardSet calls: local %d, cluster %d", localFallback, clusterFallback)
	}
	if results[3].spillBytes == 0 {
		t.Error("the cluster frontier never spilled to disk")
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {2, 4}, {8, 12}, {20, 30}}
	if got := unionLen(ivs, 0, 25); got != 4+7+5 {
		t.Errorf("unionLen = %d, want 16", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}

func TestThroughputTakesPerDayMedians(t *testing.T) {
	crawls := []crawlResult{
		{dayFetches: []int64{100, 300}, daySecs: []float64{1, 3}},
		{dayFetches: []int64{100, 300}, daySecs: []float64{9, 2}}, // day 1 slowed
		{dayFetches: []int64{100, 300}, daySecs: []float64{1, 9}}, // day 2 slowed
	}
	if got := throughput(crawls); got != 400.0/(1+3) {
		t.Errorf("throughput = %v, want 100", got)
	}
}

func TestPromSum(t *testing.T) {
	text := []byte("# HELP a_total x\na_total{op=\"x\"} 2\na_total{op=\"y\"} 3\na_totals 100\nb 7\n")
	if got := promSum(text, "a_total"); got != 5 {
		t.Errorf("promSum = %v, want 5", got)
	}
}
