// Package wal is an append-only, checksummed, length-prefixed commit
// log with group commit and crash recovery (DESIGN.md §12).
//
// Frame layout (little-endian):
//
//	[ len u32 | crc u32 | lsn u64 | payload len bytes ]
//
// len counts only the payload. crc is CRC32C (Castagnoli) over the 8
// LSN bytes followed by the payload, so neither the sequence number
// nor the record can be silently corrupted. LSNs start at 1 and
// increase by exactly 1 per frame; a gap means a missing or reordered
// record and recovery treats it as corruption.
//
// Frames live in segment files named wal-<firstLSN as 16 hex>.seg,
// each starting with an 8-byte magic. The writer rotates to a new
// segment once the current one exceeds Options.SegmentBytes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// frameHdrLen is the fixed frame header: len + crc + lsn.
	frameHdrLen = 4 + 4 + 8
	// MaxRecord bounds a single payload; anything larger in a decode
	// is corruption, not a record.
	MaxRecord = 1 << 20
)

// segMagic opens every segment file. The trailing '1' is the format
// version.
var segMagic = []byte("swtmwal1")

// SegMagicLen is the length of the segment-file magic header.
const SegMagicLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrTorn reports a frame cut off mid-record: a clean crash tail.
	ErrTorn = errors.New("wal: torn frame")
	// ErrCorrupt reports a frame that is structurally present but
	// wrong: bad checksum, oversized length, or an LSN gap.
	ErrCorrupt = errors.New("wal: corrupt frame")
	// ErrClosed reports an append to a closed writer.
	ErrClosed = errors.New("wal: writer closed")
)

// AppendFrame appends one encoded frame to dst and returns the
// extended slice. The header is built in dst itself: a local header
// array would escape through crc32.Update and cost an allocation per
// frame.
func AppendFrame(dst []byte, lsn uint64, payload []byte) []byte {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the CRC, below
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[off+4:off+8], crc32.Checksum(dst[off+8:], castagnoli))
	return dst
}

// DecodeFrame decodes the first frame in b. payload aliases b. rest
// is the remainder after the frame. It never panics on arbitrary
// input: a short buffer yields ErrTorn, a checksum mismatch or an
// impossible length yields ErrCorrupt.
func DecodeFrame(b []byte) (lsn uint64, payload, rest []byte, err error) {
	if len(b) < frameHdrLen {
		return 0, nil, nil, ErrTorn
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > MaxRecord {
		return 0, nil, nil, ErrCorrupt
	}
	end := frameHdrLen + int(plen)
	if len(b) < end {
		return 0, nil, nil, ErrTorn
	}
	wantCRC := binary.LittleEndian.Uint32(b[4:8])
	crc := crc32.Update(0, castagnoli, b[8:end])
	if crc != wantCRC {
		return 0, nil, nil, ErrCorrupt
	}
	lsn = binary.LittleEndian.Uint64(b[8:16])
	return lsn, b[frameHdrLen:end], b[end:], nil
}

// frameSize is the on-disk size of a frame carrying n payload bytes.
func frameSize(n int) int { return frameHdrLen + n }

// checkPayload validates a payload size before encoding.
func checkPayload(p []byte) error {
	if len(p) > MaxRecord {
		return fmt.Errorf("wal: record %d bytes exceeds MaxRecord %d", len(p), MaxRecord)
	}
	return nil
}
