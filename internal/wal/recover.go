package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"swisstm/internal/ticket"
)

// RecoverInfo summarizes a recovery scan.
type RecoverInfo struct {
	Frames   uint64 // frames delivered (the checksum-clean prefix)
	Bytes    uint64 // frame bytes delivered (headers + payloads)
	LastLSN  uint64 // LSN of the last delivered frame; 0 if none
	Segments int    // segment files visited before stopping
	// Truncated reports that the scan stopped before the physical
	// end of the log: a torn tail, a corrupt frame, or an LSN gap.
	// Everything after the stop point is dead data that Open removes.
	Truncated bool
	// Reason says why the scan stopped early ("" when it didn't).
	Reason string

	// Plumbing for Open: where appends continue and what to repair.
	tailSeg   string // last fully-valid segment name ("" if none)
	tailSize  int64  // its byte length
	truncSeg  string // torn/corrupt segment to truncate ("" if none)
	truncSize int64  // keep this many bytes of truncSeg
	stale     []string
}

type segRef struct {
	name  string
	first uint64
}

// listSegments returns the well-formed segment files in dir in LSN
// order. Non-segment files are ignored. A missing dir is an empty
// log.
func listSegments(fs FS, dir string) ([]segRef, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segRef
	for _, n := range names {
		if first, ok := parseSegmentName(n); ok {
			segs = append(segs, segRef{n, first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// Recover scans the log in dir, verifying checksums and LSN
// continuity, and calls fn for every frame of the longest clean
// prefix. It stops — without error — at the first torn frame, bad
// checksum, or LSN discontinuity; everything before the stop point
// has been delivered, nothing after it ever will be. A non-nil error
// reports an I/O failure or an fn failure, not log corruption.
//
// fn may be nil to scan without replaying. The payload passed to fn
// aliases the segment read buffer; fn must not retain it.
func Recover(fs FS, dir string, fn func(lsn uint64, payload []byte) error) (RecoverInfo, error) {
	var info RecoverInfo
	segs, err := listSegments(fs, dir)
	if err != nil {
		return info, err
	}
	if len(segs) > 0 && segs[0].first != 1 {
		return info, fmt.Errorf("wal: first segment %s starts at LSN %d, want 1 (wrong directory?)",
			segs[0].name, segs[0].first)
	}
	next := uint64(1)
	stop := func(i int, name string, keep int64, reason string) {
		info.Truncated = true
		info.Reason = reason
		info.truncSeg = name
		info.truncSize = keep
		for _, s := range segs[i+1:] {
			info.stale = append(info.stale, s.name)
		}
	}
	for i, seg := range segs {
		if seg.first != next {
			// A gap at a segment boundary: the previous segment is
			// complete, this one claims a future LSN. The clean
			// prefix ends here; this segment and its successors are
			// unreachable.
			stop(i-1, "", 0, fmt.Sprintf("segment %s starts at LSN %d, want %d", seg.name, seg.first, next))
			return info, nil
		}
		data, err := fs.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			return info, err
		}
		if len(data) < SegMagicLen || !bytes.Equal(data[:SegMagicLen], segMagic) {
			stop(i, seg.name, 0, fmt.Sprintf("segment %s: bad or torn magic header", seg.name))
			return info, nil
		}
		b := data[SegMagicLen:]
		for len(b) > 0 {
			lsn, payload, rest, err := DecodeFrame(b)
			if err != nil {
				stop(i, seg.name, int64(len(data)-len(b)), fmt.Sprintf("segment %s at offset %d: %v", seg.name, len(data)-len(b), err))
				return info, nil
			}
			if lsn != next {
				stop(i, seg.name, int64(len(data)-len(b)), fmt.Sprintf("segment %s at offset %d: LSN %d, want %d", seg.name, len(data)-len(b), lsn, next))
				return info, nil
			}
			if fn != nil {
				if err := fn(lsn, payload); err != nil {
					return info, err
				}
			}
			info.Frames++
			info.Bytes += uint64(frameSize(len(payload)))
			info.LastLSN = lsn
			next++
			b = rest
		}
		info.Segments++
		info.tailSeg = seg.name
		info.tailSize = int64(len(data))
	}
	return info, nil
}

// Open recovers the log in opts.Dir (truncating any torn tail and
// removing dead segments past it), then returns a Writer appending
// after the last clean frame. The RecoverInfo describes what the
// scan found; pair Open with a prior Recover call to replay state.
func Open(opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	info, err := Recover(fs, opts.Dir, nil)
	if err != nil {
		return nil, err
	}

	tailSeg, tailSize := info.tailSeg, info.tailSize
	if info.Truncated {
		// Repair: cut the torn segment back to its clean prefix (or
		// remove it outright if not even the magic survived), and
		// delete every segment past the stop point.
		if info.truncSeg != "" {
			p := filepath.Join(opts.Dir, info.truncSeg)
			if info.truncSize > 0 {
				if err := fs.Truncate(p, info.truncSize); err != nil {
					return nil, err
				}
				tailSeg, tailSize = info.truncSeg, info.truncSize
			} else if err := fs.Remove(p); err != nil {
				return nil, err
			}
		}
		for _, s := range info.stale {
			if err := fs.Remove(filepath.Join(opts.Dir, s)); err != nil {
				return nil, err
			}
		}
		if err := fs.SyncDir(opts.Dir); err != nil {
			return nil, err
		}
	}

	w := &Writer{
		opts:       opts,
		fs:         fs,
		m:          opts.Metrics,
		nextLSN:    info.LastLSN + 1,
		writtenLSN: info.LastLSN,
		notify:     make(chan struct{}, 1),
		quit:       make(chan struct{}),
		exited:     make(chan struct{}),
	}
	w.seq = ticket.New(parkPublish, w.admitLocked)
	if tailSeg == "" {
		seg, err := createSegment(fs, opts.Dir, w.nextLSN)
		if err != nil {
			return nil, err
		}
		w.seg = seg
		w.segBytes = SegMagicLen
	} else {
		seg, err := fs.OpenAppend(filepath.Join(opts.Dir, tailSeg))
		if err != nil {
			return nil, err
		}
		w.seg = seg
		w.segBytes = tailSize
	}
	w.m.Recovered.Add(info.Frames)
	go w.run()
	return w, nil
}
