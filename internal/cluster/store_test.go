package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/store"
)

func storeRec(url string, sum uint64) store.PageRecord {
	return store.PageRecord{
		URL: url, Checksum: sum, FetchedAt: 1.5, Version: 3,
		Links:      []string{"http://x.com/a", "http://x.com/b"},
		Importance: 0.25,
	}
}

// TestRemoteStoreRoundTrip drives every Collection op over loopback and
// checks the results against a local Mem collection.
func TestRemoteStoreRoundTrip(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	remote := rs.Collection("pages")
	local := store.NewMem()
	defer local.Close()

	var batch []store.PageRecord
	for i := 0; i < 40; i++ {
		r := storeRec(fmt.Sprintf("http://s%02d.com/p%03d", i%5, i), uint64(i))
		if i == 7 {
			r.Content = []byte("<html>body</html>")
		}
		batch = append(batch, r)
	}
	for _, c := range []store.Collection{remote, local} {
		if err := c.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(storeRec("http://solo.com/", 99)); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(batch[3].URL); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete("http://never.com/"); err != nil {
			t.Fatal(err)
		}
	}

	if remote.Len() != local.Len() {
		t.Fatalf("Len %d vs %d", remote.Len(), local.Len())
	}
	if !reflect.DeepEqual(remote.URLs(), local.URLs()) {
		t.Fatalf("URLs diverge:\n%v\n%v", remote.URLs(), local.URLs())
	}
	for _, u := range local.URLs() {
		lr, lok, lerr := local.Get(u)
		rr, rok, rerr := remote.Get(u)
		if lerr != nil || rerr != nil || lok != rok {
			t.Fatalf("get %s: ok %v/%v err %v/%v", u, lok, rok, lerr, rerr)
		}
		if !reflect.DeepEqual(lr, rr) {
			t.Fatalf("get %s:\n local %+v\nremote %+v", u, lr, rr)
		}
	}
	if _, ok, err := remote.Get("http://missing.com/"); ok || err != nil {
		t.Fatalf("missing get: ok=%v err=%v", ok, err)
	}

	var localScan, remoteScan []store.PageRecord
	if err := local.Scan(func(r store.PageRecord) bool { localScan = append(localScan, r); return true }); err != nil {
		t.Fatal(err)
	}
	if err := remote.Scan(func(r store.PageRecord) bool { remoteScan = append(remoteScan, r); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localScan, remoteScan) {
		t.Fatalf("scan diverges: %d vs %d records", len(remoteScan), len(localScan))
	}
	// Early stop.
	n := 0
	if err := remote.Scan(func(store.PageRecord) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("early-stop scan visited %d", n)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStoreScanChunks forces multi-chunk scans (more records than
// storeScanChunk) and checks order and completeness.
func TestRemoteStoreScanChunks(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	c := rs.Collection("big")
	n := storeScanChunk*2 + 17
	batch := make([]store.PageRecord, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, store.PageRecord{URL: fmt.Sprintf("http://big.com/p%06d", i), Checksum: uint64(i)})
	}
	if err := c.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	seen := 0
	prev := ""
	if err := c.Scan(func(r store.PageRecord) bool {
		if r.URL <= prev {
			t.Fatalf("scan out of order: %s after %s", r.URL, prev)
		}
		prev = r.URL
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("chunked scan saw %d records, want %d", seen, n)
	}
}

// TestRemoteStoreDiskPersists round-trips through a disk-backed store
// server: a second server over the same directory must serve what the
// first one stored, and a dropped ephemeral collection must be gone.
func TestRemoteStoreDiskPersists(t *testing.T) {
	dir := t.TempDir()
	srv := NewDiskStoreServer(dir)
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Collection("pages").Put(storeRec("http://keep.com/", 1)); err != nil {
		t.Fatal(err)
	}
	eph := rs.EphemeralCollection("gen-1")
	if err := eph.Put(storeRec("http://gone.com/", 2)); err != nil {
		t.Fatal(err)
	}
	if err := eph.Close(); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "gen-1")); err != nil {
		t.Fatal(err)
	}

	srv2 := NewDiskStoreServer(dir)
	t.Cleanup(func() { srv2.Close() })
	rs2, err := LoopbackStore(srv2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs2.Close() })
	got, ok, err := rs2.Collection("pages").Get("http://keep.com/")
	if err != nil || !ok || got.Checksum != 1 {
		t.Fatalf("persistent collection lost across restart: %+v ok=%v err=%v", got, ok, err)
	}
	if n := rs2.Collection("gen-1").Len(); n != 0 {
		t.Fatalf("dropped ephemeral collection resurrected with %d records", n)
	}
}

// TestRemoteStoreFlakyTransport runs the op mix over connections that
// die every few reads: redial + request-ID dedup must keep the remote
// contents identical to a local collection, with no sticky error.
func TestRemoteStoreFlakyTransport(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	dial := func() (net.Conn, error) {
		conn, err := srv.Pipe()
		if err != nil {
			return nil, err
		}
		return &flakyConn{Conn: conn, limit: 7}, nil
	}
	rs, err := DialStore(dial, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	remote := rs.Collection("pages")
	local := store.NewMem()
	defer local.Close()
	for i := 0; i < 30; i++ {
		r := storeRec(fmt.Sprintf("http://f.com/p%02d", i%10), uint64(i))
		for _, c := range []store.Collection{remote, local} {
			if err := c.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			u := fmt.Sprintf("http://f.com/p%02d", (i+5)%10)
			for _, c := range []store.Collection{remote, local} {
				if err := c.Delete(u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !reflect.DeepEqual(remote.URLs(), local.URLs()) {
		t.Fatalf("URLs diverge over flaky transport:\n%v\n%v", remote.URLs(), local.URLs())
	}
	for _, u := range local.URLs() {
		lr, _, _ := local.Get(u)
		rr, ok, err := remote.Get(u)
		if err != nil || !ok || !reflect.DeepEqual(lr, rr) {
			t.Fatalf("get %s over flaky transport: %+v vs %+v (ok=%v err=%v)", u, rr, lr, ok, err)
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("flaky transport became sticky: %v", err)
	}
}

// TestStoreResetSweepsStaleCollections: Reset must also remove
// collections a *previous* server process left on disk — a restarted
// storerd has an empty open-collection map, but crawlsim's
// per-contender Reset still has to deliver an empty store, or a
// contender silently starts from a previous run's pages.
func TestStoreResetSweepsStaleCollections(t *testing.T) {
	dir := t.TempDir()
	srv := NewDiskStoreServer(dir)
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Collection("gen-1").Put(storeRec("http://stale.com/", 1)); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh server process over the same directory: gen-1 exists on
	// disk but is not open.
	srv2 := NewDiskStoreServer(dir)
	t.Cleanup(func() { srv2.Close() })
	rs2, err := LoopbackStore(srv2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs2.Close() })
	if err := rs2.Reset(); err != nil {
		t.Fatal(err)
	}
	// Stat before Len: reading the collection would lazily recreate an
	// empty directory.
	if _, err := os.Stat(filepath.Join(dir, "gen-1")); !os.IsNotExist(err) {
		t.Fatalf("stale collection directory survived Reset (stat err: %v)", err)
	}
	if n := rs2.Collection("gen-1").Len(); n != 0 {
		t.Fatalf("stale on-disk collection survived Reset with %d records", n)
	}
}

// TestStoreHelloRejectsWrongDaemon: a store client pointed at a shardd
// (and a shard client pointed at a storerd) must fail at connect, not
// corrupt a crawl later.
func TestStoreHelloRejectsWrongDaemon(t *testing.T) {
	shardSrv := NewShardServer(frontier.NewSharded(4))
	t.Cleanup(func() { shardSrv.Close() })
	if _, err := DialStore(shardSrv.Pipe, Options{}); err == nil {
		t.Fatal("store client accepted a shard server")
	}
	storeSrv := NewMemStoreServer()
	t.Cleanup(func() { storeSrv.Close() })
	if _, err := Dial([]Dialer{storeSrv.Pipe}, Options{}); err == nil {
		t.Fatal("shard client accepted a store server")
	}
}

// TestStoreReconnectRestartSemantics: a reconnect landing on a
// *restarted* store server must be refused when the server is
// memory-backed (its collections are gone; resuming would silently
// corrupt the crawl) and accepted when it is disk-backed (acknowledged
// writes survived).
func TestStoreReconnectRestartSemantics(t *testing.T) {
	t.Run("mem-restart-refused", func(t *testing.T) {
		srv1 := NewMemStoreServer()
		srv2 := NewMemStoreServer()
		t.Cleanup(func() { srv1.Close(); srv2.Close() })
		var target atomic.Pointer[StoreServer]
		target.Store(srv1)
		rs, err := DialStore(func() (net.Conn, error) { return target.Load().Pipe() }, fastRetry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		c := rs.Collection("pages")
		if err := c.Put(storeRec("http://a.com/", 1)); err != nil {
			t.Fatal(err)
		}
		// "Restart": the original process dies, a fresh one (new boot ID,
		// empty collections) answers on the same address.
		target.Store(srv2)
		srv1.Close()
		if err := c.Put(storeRec("http://a.com/", 2)); err == nil {
			t.Fatal("write accepted against a restarted memory-backed store server")
		}
		if rs.Err() == nil {
			t.Fatal("restart not surfaced via Err")
		}
	})
	t.Run("disk-restart-accepted", func(t *testing.T) {
		dir := t.TempDir()
		srv1 := NewDiskStoreServer(dir)
		var target atomic.Pointer[StoreServer]
		target.Store(srv1)
		rs, err := DialStore(func() (net.Conn, error) { return target.Load().Pipe() }, fastRetry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		c := rs.Collection("pages")
		if err := c.Put(storeRec("http://a.com/", 1)); err != nil {
			t.Fatal(err)
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}
		srv2 := NewDiskStoreServer(dir)
		t.Cleanup(func() { srv2.Close() })
		target.Store(srv2)
		if err := c.Put(storeRec("http://b.com/", 2)); err != nil {
			t.Fatalf("write refused across a durable restart: %v", err)
		}
		if got, ok, err := c.Get("http://a.com/"); err != nil || !ok || got.Checksum != 1 {
			t.Fatalf("pre-restart record lost: %+v ok=%v err=%v", got, ok, err)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStoreServerRejectsBadNames: names that could escape the backing
// directory are refused.
func TestStoreServerRejectsBadNames(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	for _, name := range []string{"", "..", ".hidden", "a/b", "a\\b", "x y"} {
		if err := rs.Collection(name).Put(storeRec("http://a.com/", 1)); err == nil {
			t.Fatalf("collection name %q accepted", name)
		}
	}
}

// TestRecordNilEmptyMatchesRemote pins how nil and empty Links and
// Content come back: store.Disk and RemoteStore (over a mem server)
// share one record codec, so both must return exactly the same record
// — empty decoding as nil — whichever was put.
func TestRecordNilEmptyMatchesRemote(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	remote := rs.Collection("pages")

	recs := []store.PageRecord{
		{URL: "http://a.com/nil"},
		{URL: "http://a.com/empty", Links: []string{}, Content: []byte{}},
		{URL: "http://a.com/full", Links: []string{"http://a.com/x"}, Content: []byte("x")},
	}
	for _, c := range []store.Collection{disk, remote} {
		if err := c.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs {
		got, ok, err := disk.Get(r.URL)
		if err != nil || !ok {
			t.Fatalf("disk get %s: ok=%v err=%v", r.URL, ok, err)
		}
		want, ok, err := remote.Get(r.URL)
		if err != nil || !ok {
			t.Fatalf("remote get %s: ok=%v err=%v", r.URL, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: disk %#v, remote %#v", r.URL, got, want)
		}
		if len(r.Links) == 0 && (got.Links != nil || got.Content != nil) {
			t.Fatalf("%s: empty fields decoded non-nil: %#v", r.URL, got)
		}
	}
}
