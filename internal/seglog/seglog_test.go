package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one sealed frame around payload.
func frame(t *testing.T, payload string) []byte {
	t.Helper()
	buf := append(Reserve(nil), payload...)
	if err := Seal(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// writeLog writes data as a log file and opens it for recovery.
func writeLog(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// recoverAll replays f and returns the payloads it saw.
func recoverAll(t *testing.T, f *os.File) (payloads []string, end int64, swept bool) {
	t.Helper()
	end, swept, err := Recover(f, func(off int64, p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, end, swept
}

func fileSize(t *testing.T, f *os.File) int64 {
	t.Helper()
	st, err := os.Stat(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestRecoverEveryCut cuts a three-frame log at every byte offset: the
// replay must see exactly the frames that end at or before the cut,
// and the file must be truncated to the last of them.
func TestRecoverEveryCut(t *testing.T) {
	payloads := []string{"alpha", "", "a longer third payload"}
	var log []byte
	var bounds []int64 // bounds[i]: end of frame i
	for _, p := range payloads {
		log = append(log, frame(t, p)...)
		bounds = append(bounds, int64(len(log)))
	}
	for cut := 0; cut <= len(log); cut++ {
		whole := 0
		var want int64
		for whole < len(bounds) && bounds[whole] <= int64(cut) {
			want = bounds[whole]
			whole++
		}
		f := writeLog(t, log[:cut])
		got, end, swept := recoverAll(t, f)
		if fmt.Sprint(got) != fmt.Sprint(payloads[:whole]) {
			t.Fatalf("cut %d: replayed %q, want %q", cut, got, payloads[:whole])
		}
		if end != want || fileSize(t, f) != want {
			t.Fatalf("cut %d: end %d, file %d bytes, want %d", cut, end, fileSize(t, f), want)
		}
		if swept != (want != int64(cut)) {
			t.Fatalf("cut %d: swept %v", cut, swept)
		}
	}
}

// TestRecoverSweepsCorruptFrames: a flipped CRC byte and a length over
// MaxFrame both end the replay at the bad frame and are truncated away.
func TestRecoverSweepsCorruptFrames(t *testing.T) {
	good := frame(t, "kept")
	for name, corrupt := range map[string]func([]byte){
		"crc":      func(b []byte) { b[4] ^= 0xFF },
		"over cap": func(b []byte) { b[3] = 0xFF },
	} {
		t.Run(name, func(t *testing.T) {
			bad := frame(t, "dropped")
			corrupt(bad)
			log := append(append(append([]byte{}, good...), bad...), frame(t, "after")...)
			got, end, swept := recoverAll(t, writeLog(t, log))
			if len(got) != 1 || got[0] != "kept" || !swept || end != int64(len(good)) {
				t.Fatalf("replayed %q to %d (swept %v), want [kept] to %d", got, end, swept, len(good))
			}
		})
	}
}

// TestRecoverRefusedFrameLeavesFile: an error from the caller that does
// not wrap ErrCorrupt fails the replay and leaves every byte in place;
// one that does sweeps like a bad CRC.
func TestRecoverRefusedFrameLeavesFile(t *testing.T) {
	log := append(frame(t, "v1 record"), frame(t, "v2 record")...)
	refuse := errors.New("record from another build")
	f := writeLog(t, log)
	_, _, err := Recover(f, func(off int64, p []byte) error {
		if off > 0 {
			return refuse
		}
		return nil
	})
	if !errors.Is(err, refuse) {
		t.Fatalf("got %v, want the refusal", err)
	}
	if data, _ := os.ReadFile(f.Name()); !bytes.Equal(data, log) {
		t.Fatal("refused log was modified")
	}

	end, swept, err := Recover(f, func(off int64, p []byte) error {
		if off > 0 {
			return fmt.Errorf("%w: undecodable", ErrCorrupt)
		}
		return nil
	})
	if err != nil || !swept || end != int64(len(log)/2) || fileSize(t, f) != end {
		t.Fatalf("undecodable frame: end %d swept %v err %v, file %d", end, swept, err, fileSize(t, f))
	}
}

// TestRecoverReadErrorKeepsFile: a real read error (here, a closed
// file) fails the replay instead of truncating bytes that may be fine.
func TestRecoverReadErrorKeepsFile(t *testing.T) {
	log := append(frame(t, "one"), frame(t, "two")...)
	f := writeLog(t, log)
	f.Close()
	if _, _, err := Recover(f, func(int64, []byte) error { return nil }); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("read error on a closed file: got %v", err)
	}
	if data, _ := os.ReadFile(f.Name()); !bytes.Equal(data, log) {
		t.Fatal("log truncated after a read error")
	}
}

// TestReadAtAndCopyAt: positioned reads check length and CRC against
// the index's frame size, and CopyAt moves a frame byte for byte.
func TestReadAtAndCopyAt(t *testing.T) {
	a, b := frame(t, "first"), frame(t, "second")
	log := bytes.NewReader(append(append([]byte{}, a...), b...))
	p, err := ReadAt(log, int64(len(a)), int64(len(b)))
	if err != nil || string(p) != "second" {
		t.Fatalf("ReadAt: %q, %v", p, err)
	}
	if _, err := ReadAt(log, 0, int64(len(a)+1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt with a wrong length: %v", err)
	}
	var out bytes.Buffer
	if err := CopyAt(&out, log, int64(len(a)), int64(len(b))); err != nil || !bytes.Equal(out.Bytes(), b) {
		t.Fatalf("CopyAt: %x, %v", out.Bytes(), err)
	}
}

// TestSealRefusesOversizedPayload: a payload over MaxFrame cannot be
// framed, so no log holds a frame its reader would sweep as corrupt.
// The buffer is never written, so it costs no resident memory.
func TestSealRefusesOversizedPayload(t *testing.T) {
	if err := Seal(make([]byte, HeaderLen+MaxFrame+1)); err == nil {
		t.Fatal("oversized payload sealed")
	}
	if err := Seal(make([]byte, HeaderLen+MaxFrame)); err != nil {
		t.Fatalf("payload of exactly MaxFrame: %v", err)
	}
}
