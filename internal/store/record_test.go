package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webevolve/internal/seglog"
)

// TestDiskRefusesEarlierFormat hand-builds a segment in the layout of
// earlier builds (crc | keyLen | valLen | key | JSON record): OpenDisk
// must fail naming the file, and leave it byte for byte as it was
// instead of sweeping its records as corrupt frames.
func TestDiskRefusesEarlierFormat(t *testing.T) {
	dir := t.TempDir()
	key := "http://old.com/"
	val := `{"URL":"http://old.com/","Checksum":7,"FetchedAt":1.5,"Version":0,"Links":null,"Content":null,"Importance":0}`
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(val)))
	h := crc32.NewIEEE()
	h.Write(hdr[4:12])
	h.Write([]byte(key + val))
	binary.LittleEndian.PutUint32(hdr[0:4], h.Sum32())
	old := append(hdr[:], key+val...)
	path := filepath.Join(dir, "segment-000001.log")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDisk(dir)
	if err == nil {
		d.Close()
		t.Fatal("opened a directory holding an earlier build's segment")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name %s", err, path)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Fatal("refused segment was modified")
	}
}

// TestSegmentNamesParsedStrictly: only names segmentName gives back
// exactly are segments; near misses are left alone.
func TestSegmentNamesParsedStrictly(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"segment-000002.seg.tmp", "segment-+00003.seg", "segment-4.seg", "segment-000005.segx"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(segmentPath(dir, 7), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := segmentIDs(dir)
	if err != nil || !reflect.DeepEqual(ids, []int{7}) {
		t.Fatalf("segment ids %v, %v; want [7]", ids, err)
	}
}

// TestDiskPutOverCapFails: a record whose frame would pass
// seglog.MaxFrame is refused before anything is written, since replay
// would sweep it as corrupt.
func TestDiskPutOverCapFails(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := PageRecord{URL: "http://big.com/", Content: make([]byte, seglog.MaxFrame)}
	if err := d.PutBatch([]PageRecord{rec("http://small.com/", 1), big}); err == nil {
		t.Fatal("put of an over-cap record succeeded")
	}
	if d.Len() != 0 {
		t.Fatalf("a failed batch stored %d records", d.Len())
	}
	if err := d.Put(rec("http://small.com/", 1)); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadRecord feeds arbitrary payloads to the segment decoders:
// they must never panic, and whatever decodes must re-encode to a
// frame that reads back to the same record, bit for bit.
func FuzzReadRecord(f *testing.F) {
	for _, r := range []PageRecord{
		{URL: "http://a.com/"},
		{URL: "http://a.com/p", Checksum: 1 << 60, FetchedAt: 2.5, Version: -3,
			Links: []string{"http://a.com/p/x", "http://b.com/"}, Content: []byte("<html>"), Importance: 0.5},
	} {
		buf, err := appendFrame(nil, r, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[seglog.HeaderLen:])
	}
	tomb, _ := appendFrame(nil, PageRecord{URL: "http://a.com/"}, true)
	f.Add(tomb[seglog.HeaderLen:])
	f.Add([]byte{recPut, 0, 200})
	f.Fuzz(func(t *testing.T, p []byte) {
		frame := append(seglog.Reserve(nil), p...)
		if seglog.Seal(frame) != nil {
			return
		}
		url, tomb, kerr := frameKey(p)
		r, err := readRecord(bytes.NewReader(frame), diskPos{n: int64(len(frame))})
		if err != nil {
			return
		}
		if kerr != nil || tomb || url != r.URL {
			t.Fatalf("frameKey %q tomb=%v err=%v disagrees with the decoded put %q", url, tomb, kerr, r.URL)
		}
		again, err := appendFrame(nil, r, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readRecord(bytes.NewReader(again), diskPos{n: int64(len(again))})
		if err != nil {
			t.Fatal(err)
		}
		if twice, _ := appendFrame(nil, got, false); !bytes.Equal(twice, again) {
			t.Fatalf("round trip changed the record: %#v -> %#v", r, got)
		}
	})
}
