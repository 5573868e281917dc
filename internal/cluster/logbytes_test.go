package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/seglog"
)

// TestLogBytesUnchanged pins the bytes that a fixed op sequence writes
// to a -wal directory and to the disk tier's spill logs. The digests
// were recorded from the build before both logs moved onto
// internal/seglog, whose frame is the byte layout they already had: a
// -wal or -frontier-dir from that build must open as-is, so neither
// format may drift.
func TestLogBytesUnchanged(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	q, err := frontier.OpenSharded(frontier.StoreConfig{Shards: 2, SpillDir: spillDir, ResidentBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShardServer(q)
	if err := srv.OpenWAL(walDir); err != nil {
		t.Fatal(err)
	}
	var hello seglog.Enc
	hello.Bool(true).F64(0.25).Bool(true)
	if st, resp := srv.handle(opHello, hello.B); st != statusOK {
		t.Fatalf("hello: %s", resp)
	}
	for i, u := range testURLs(3, 4) {
		pushVia(t, srv, uint64(100+i), u, float64(i%5), float64(i%2))
	}
	// Big enough that writeFrame deflates the logged frame.
	if st, resp := srv.handle(opPushBatch, walBatchBody(200, testURLs(8, 8))); st != statusOK {
		t.Fatalf("push batch: %s", resp)
	}
	popVia(t, srv, 300, 2)
	popVia(t, srv, 301, 4)
	var rm seglog.Enc
	rm.Fix64(400).Str("http://site001.com/p00002")
	if st, resp := srv.handle(opRemove, rm.B); st != statusOK {
		t.Fatalf("remove: %s", resp)
	}

	got := map[string]string{}
	digest := func(path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[filepath.Base(path)] = hex.EncodeToString(sum[:8])
	}
	digest(walFilePath(walDir, 1))
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	digest(filepath.Join(walDir, walSnapName))
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	spills, err := filepath.Glob(filepath.Join(spillDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range spills {
		digest(p)
	}

	want := map[string]string{
		"frontier-00000001.wal": "e8f2e2c3acbd65a0",
		"frontier.snap":         "8c46ff9f937961c4",
		"frontier-0000.log":     "a4615b3b5ef90b63",
		"frontier-0001.log":     "0a48d0eb4c60c1d8",
	}
	if len(got) != len(want) {
		t.Errorf("files %v, want %v", got, want)
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 prefix %s, want %s", name, got[name], sum)
		}
	}
}
