// Package seglog is the one record-log format of webevolve: the frame
// under the repository store's segments (internal/store), the frontier
// disk tier's spill logs (internal/frontier), the shard server's WAL
// and the cluster wire protocol (internal/cluster), together with the
// body encoder all four write their payloads with.
//
// Frame layout (little endian):
//
//	len uint32 | crc32(payload) uint32 | payload
//
// len counts the payload alone and never exceeds MaxFrame. What the
// payload holds is the caller's business; seglog only frames it,
// checks it and, for an on-disk log, sweeps a crashed tail:
//
//   - Reserve and Seal build a frame in place in a caller's buffer;
//   - Read reads the next frame of a stream (a connection, a snapshot);
//   - ReadAt reads one frame at a known offset and length of a log;
//   - Recover replays a log front to back and truncates a torn or
//     corrupt tail back to the last valid frame;
//   - CopyAt copies a live frame into a compacted log.
//
// No function here syncs a file: each log keeps its own durability.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

const (
	// HeaderLen is the frame header: payload length, then its CRC.
	HeaderLen = 8
	// MaxFrame bounds a payload. A longer frame cannot be written, and a
	// header declaring one is read as corrupt.
	MaxFrame = 64 << 20
)

// ErrCorrupt marks a frame that is not a whole, intact frame: torn
// short, failing its CRC, declaring a length over MaxFrame, or
// carrying a payload its caller cannot decode. Recover sweeps a log
// back to the frame before the first one.
var ErrCorrupt = errors.New("seglog: corrupt frame")

// Reserve appends room for one frame header to buf. The caller appends
// the payload after it and seals the frame with Seal.
func Reserve(buf []byte) []byte {
	return append(buf, make([]byte, HeaderLen)...)
}

// Seal fills in the header of frame, a reserved header followed by
// the payload. It fails, leaving the header zero, when the payload is
// over MaxFrame.
func Seal(frame []byte) error {
	n := len(frame) - HeaderLen
	if n > MaxFrame {
		return fmt.Errorf("seglog: frame too large (%d bytes)", n)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[HeaderLen:]))
	return nil
}

// Read reads the next frame from r and returns its payload. It returns
// io.EOF at a clean end between frames, an error wrapping ErrCorrupt
// for a torn or corrupt frame, and any other read error as it is.
func Read(r io.Reader) ([]byte, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, short(err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: length %d over %d", ErrCorrupt, n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, short(err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// short maps a failed ReadFull: running out of bytes inside a frame is
// a torn frame, io.EOF before its first byte is the clean end, and any
// other failure is a real I/O error that says nothing about the bytes.
func short(err error) error {
	if err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: torn frame", ErrCorrupt)
	}
	return err
}

// ReadAt reads the frame of n bytes, header included, at off in r and
// returns its payload. Log indexes record each frame's offset and
// length, so one positioned read fetches it; a header that disagrees
// with n, or a failed CRC, is corruption.
func ReadAt(r io.ReaderAt, off, n int64) ([]byte, error) {
	frame, err := readFrameAt(r, off, n)
	if err != nil {
		return nil, err
	}
	return frame[HeaderLen:], nil
}

func readFrameAt(r io.ReaderAt, off, n int64) ([]byte, error) {
	if n < HeaderLen || n > HeaderLen+MaxFrame {
		return nil, fmt.Errorf("%w: length %d at offset %d", ErrCorrupt, n, off)
	}
	frame := make([]byte, n)
	if _, err := r.ReadAt(frame, off); err != nil {
		return nil, fmt.Errorf("seglog: offset %d: %w", off, err)
	}
	if int64(binary.LittleEndian.Uint32(frame[0:4])) != n-HeaderLen ||
		crc32.ChecksumIEEE(frame[HeaderLen:]) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, fmt.Errorf("%w: at offset %d", ErrCorrupt, off)
	}
	return frame, nil
}

// CopyAt copies the n-byte frame at off in src to w, checking it on
// the way: compaction moves live frames forward without decoding them.
func CopyAt(w io.Writer, src io.ReaderAt, off, n int64) error {
	frame, err := readFrameAt(src, off, n)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// Recover replays the log in f from its start, calling fn with each
// frame's offset and payload, and returns the end of the last valid
// frame, which is where the next append goes.
//
// The first invalid frame ends the replay: a frame torn short or
// failing its CRC, or one fn rejects with an error wrapping
// ErrCorrupt. The file is then truncated back to that frame's offset
// and swept reports true. A crash leaves such a tail only in frames
// that were never acknowledged, so dropping them loses nothing a
// writer was promised. (Bit rot mid-file reads the same way and gets
// the same sweep.)
//
// Any other error fails the replay and leaves the file as it is: a
// real read error (the bytes may be fine), or fn refusing an intact
// frame, as a log written by another build is refused.
func Recover(f *os.File, fn func(off int64, payload []byte) error) (end int64, swept bool, err error) {
	r := bufio.NewReader(io.NewSectionReader(f, 0, math.MaxInt64))
	for {
		payload, err := Read(r)
		if err == io.EOF {
			return end, false, nil
		}
		if err == nil {
			err = fn(end, payload)
		}
		if errors.Is(err, ErrCorrupt) {
			if terr := f.Truncate(end); terr != nil {
				return end, false, fmt.Errorf("seglog: %s: sweeping corrupt tail: %w", f.Name(), terr)
			}
			return end, true, nil
		}
		if err != nil {
			return end, false, err
		}
		end += HeaderLen + int64(len(payload))
	}
}
