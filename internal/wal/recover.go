package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
)

// dirList is one listing of a WAL directory, sorted by kind.
type dirList struct {
	ckpts, segs []uint64 // checkpoint and segment LSNs, ascending
	tmps        []string // checkpoints that crashed before their rename
	unknown     []string
}

// listDir lists dir once. List is sorted and the zero-padded hex names
// sort by LSN, so ckpts and segs come out ascending.
func listDir(fsys FS, dir string) (dirList, error) {
	names, err := fsys.List(dir)
	if err != nil {
		return dirList{}, fmt.Errorf("wal: list dir: %w", err)
	}
	var d dirList
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			d.tmps = append(d.tmps, name)
		} else if lsn, ok := parseName(name, ckptPrefix, ckptSuffix); ok {
			d.ckpts = append(d.ckpts, lsn)
		} else if lsn, ok := parseName(name, segPrefix, segSuffix); ok {
			d.segs = append(d.segs, lsn)
		} else {
			d.unknown = append(d.unknown, name)
		}
	}
	return d, nil
}

// recoverDir is the read-only recovery scan Open and OpenTailer share:
// the newest readable checkpoint in d plus every intact record after it.
// It never writes. A torn tail is returned for the caller to act on —
// Open cuts it off, a Tailer stops before it — and is nil when the log
// ends cleanly.
func recoverDir(fsys FS, dir string, d dirList) (*Recovered, *tornTail, error) {
	rec := &Recovered{}
	for _, name := range d.unknown {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("ignoring unrecognised file %q", name))
	}
	if err := chooseCheckpoint(fsys, dir, d, rec); err != nil {
		return nil, nil, err
	}
	w, err := walkSegments(fsys, dir, d.segs, rec.CheckpointLSN+1)
	if err != nil {
		return nil, nil, err
	}
	rec.Records = w.records
	rec.LastLSN = w.next - 1
	if w.torn != nil {
		rec.TornTail = true
		rec.Warnings = append(rec.Warnings, w.torn.String())
	}
	return rec, w.torn, nil
}

// chooseCheckpoint fills rec from the newest checkpoint that reads back
// whole, falling back across older ones. With none readable, recovery
// replays the full log if it still reaches back to LSN 1; otherwise old
// segments were pruned against the lost checkpoints and nothing can be
// rebuilt (ErrNoCheckpoint).
func chooseCheckpoint(fsys FS, dir string, d dirList, rec *Recovered) error {
	for i := len(d.ckpts) - 1; i >= 0; i-- {
		lsn := d.ckpts[i]
		data, err := fsys.ReadFile(filepath.Join(dir, ckptName(lsn)))
		if err == nil {
			payload, plsn, perr := parseCheckpointFile(data)
			if perr == nil && plsn == lsn {
				rec.HaveCheckpoint = true
				rec.Checkpoint = payload
				rec.CheckpointLSN = lsn
				rec.CheckpointFallback = i != len(d.ckpts)-1
				return nil
			}
			err = perr
			if perr == nil {
				err = fmt.Errorf("checkpoint LSN %d does not match file name", plsn)
			}
		}
		rec.Warnings = append(rec.Warnings,
			fmt.Sprintf("checkpoint %s unreadable (%v), falling back", ckptName(lsn), err))
	}
	if len(d.ckpts) == 0 {
		return nil
	}
	if len(d.segs) == 0 || d.segs[0] != 1 {
		first := uint64(0)
		if len(d.segs) > 0 {
			first = d.segs[0]
		}
		return fmt.Errorf("wal: all %d checkpoints unreadable and log starts at segment %016x: %w",
			len(d.ckpts), first, ErrNoCheckpoint)
	}
	rec.Warnings = append(rec.Warnings,
		fmt.Sprintf("all %d checkpoints unreadable; replaying the full log", len(d.ckpts)))
	return nil
}

// walk is what walkSegments read.
type walk struct {
	records [][]byte  // payloads of intact records from the start LSN on
	next    uint64    // LSN after the last of them (the start LSN if none)
	torn    *tornTail // damage at the end of the final segment, or nil
}

// tornTail locates damage in the final segment.
type tornTail struct {
	seg uint64 // first LSN of the segment, i.e. its name
	off int    // offset of the first bad frame; 0 when the header is bad
	lsn uint64 // LSN the bad frame would have had
}

func (t *tornTail) String() string {
	if t.off == 0 {
		return fmt.Sprintf("torn tail: segment %s has a damaged header", segName(t.seg))
	}
	return fmt.Sprintf("torn tail: segment %s has a bad record at offset %d (LSN %d)", segName(t.seg), t.off, t.lsn)
}

// walkSegments is the one decoder of segment files. It starts at the last
// segment whose first LSN is <= from — the one that holds (or would hold)
// record from — checks every header and frame and that each segment
// starts where its predecessor ended, and collects the records with
// LSN >= from.
//
// Damage is classified by one rule. A bad header or frame in the final
// segment is a torn tail: the walk stops there and reports it with
// everything before it. Damage in any other segment is ErrCorrupt. A
// segment that starts past where its predecessor ended is ErrGap, one
// that starts before is ErrCorrupt. Errors attributable to one segment,
// including a failed read, come wrapped in a SegmentError naming it.
func walkSegments(fsys FS, dir string, segs []uint64, from uint64) (walk, error) {
	w := walk{next: from}
	start := -1
	for i, fl := range segs {
		if fl <= from {
			start = i
		}
	}
	if start == -1 {
		if len(segs) > 0 {
			// Every surviving segment starts after the records we need.
			return w, fmt.Errorf("wal: need records from LSN %d but oldest segment starts at %d: %w",
				from, segs[0], ErrGap)
		}
		return w, nil
	}

	expectFirst := uint64(0)
	for i := start; i < len(segs); i++ {
		fl := segs[i]
		name := segName(fl)
		final := i == len(segs)-1
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			// Not classified: a concurrent writer may prune a segment
			// between List and ReadFile, and only a fresh listing can say
			// whether that matters.
			return w, &SegmentError{Name: name, Err: fmt.Errorf("wal: read segment %s: %w", name, err)}
		}
		if !parseSegHeader(data, fl) {
			if final {
				w.torn = &tornTail{seg: fl, lsn: fl}
				return w, nil
			}
			return w, &SegmentError{Name: name,
				Err: fmt.Errorf("wal: segment %s has a damaged header mid-chain: %w", name, ErrCorrupt)}
		}
		if expectFirst != 0 && fl != expectFirst {
			if fl > expectFirst {
				return w, fmt.Errorf("wal: segment chain jumps from LSN %d to %d (%s): %w",
					expectFirst, fl, name, ErrGap)
			}
			return w, &SegmentError{Name: name,
				Err: fmt.Errorf("wal: segment %s overlaps the previous segment (expected first LSN %d): %w",
					name, expectFirst, ErrCorrupt)}
		}
		lsn := fl
		for off := segHeaderSize; off < len(data); {
			plen := -1
			if len(data)-off >= recordFrameSize {
				n := int(binary.LittleEndian.Uint32(data[off:]))
				end := off + recordFrameSize + n
				if n <= maxRecordBytes && end <= len(data) &&
					Checksum(data[off+recordFrameSize:end]) == binary.LittleEndian.Uint32(data[off+4:]) {
					plen = n
				}
			}
			if plen < 0 {
				if final {
					w.torn = &tornTail{seg: fl, off: off, lsn: lsn}
					return w, nil
				}
				return w, &SegmentError{Name: name,
					Err: fmt.Errorf("wal: segment %s: bad record at offset %d with intact segments after it: %w",
						name, off, ErrCorrupt)}
			}
			if lsn >= from {
				w.records = append(w.records, data[off+recordFrameSize:off+recordFrameSize+plen])
				w.next = lsn + 1
			}
			lsn++
			off += recordFrameSize + plen
		}
		expectFirst = lsn
	}
	return w, nil
}
