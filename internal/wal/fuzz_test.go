package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// writtenLog runs the real writer on a MemFS — n records, segments
// rotated at segBytes — and returns the FS and its segment file paths in
// chain order.
func writtenLog(tb testing.TB, n int, segBytes int64) (*MemFS, []string) {
	tb.Helper()
	fs := NewMemFS()
	l, _ := mustOpen(tb, fs, Options{Dir: "wal", Policy: SyncAlways, SegmentBytes: segBytes})
	appendN(tb, l, 0, n)
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	var segs []string
	for _, name := range fs.DumpNames() {
		if _, ok := parseName(name[len("wal/"):], segPrefix, segSuffix); ok {
			segs = append(segs, name)
		}
	}
	return fs, segs
}

func readAll(tb testing.TB, fs *MemFS, paths ...string) [][]byte {
	tb.Helper()
	out := make([][]byte, len(paths))
	for i, p := range paths {
		b, err := fs.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func flipped(b []byte, off int) []byte {
	b = slices.Clone(b)
	b[off] ^= 0x10
	return b
}

// errClass maps a recovery error to the typed class a caller branches on.
func errClass(err error) string {
	for _, c := range []error{ErrGap, ErrCorrupt, ErrNoCheckpoint} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	if err != nil {
		return "other"
	}
	return "ok"
}

// FuzzRecoverSegments feeds up to three fuzzed segment files through both
// recovery front ends. Each file is named after the first LSN its header
// claims (or its position, when too short to claim one). OpenTailer runs
// first because it is read-only, then Open, which may repair. Neither
// may panic, both must classify the directory alike, and when both
// succeed they must recover the same records. Open's repair must leave a
// log that reopens cleanly and that a Poll finds nothing new in.
func FuzzRecoverSegments(f *testing.F) {
	fs, segs := writtenLog(f, 10, 4<<20)
	one := readAll(f, fs, segs...)[0]
	f.Add(one, []byte(nil), []byte(nil))                      // clean
	f.Add(one[:len(one)-3], []byte(nil), []byte(nil))         // torn frame
	f.Add(flipped(one, len(one)/2), []byte(nil), []byte(nil)) // flipped payload bit
	f.Add(one[:segHeaderSize-1], []byte(nil), []byte(nil))    // torn header
	f.Add([]byte(nil), []byte(nil), []byte(nil))              // empty directory
	fs, segs = writtenLog(f, 30, 128)
	multi := readAll(f, fs, segs...)
	if len(multi) < 4 {
		f.Fatalf("want ≥4 segments for the multi-segment seeds, got %d", len(multi))
	}
	a, b, c := multi[0], multi[1], multi[2]
	f.Add(a, b, c)                                           // clean chain
	f.Add(a, b, c[:len(c)-5])                                // torn final frame
	f.Add(a, b, c[:segHeaderSize-1])                         // torn final header
	f.Add(flipped(a, segHeaderSize+recordFrameSize+2), b, c) // mid-chain bit flip
	f.Add(a, flipped(b, 3), c)                               // mid-chain header damage
	f.Add(a, c, []byte(nil))                                 // gap
	f.Add(b, c, []byte(nil))                                 // no LSN 1

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		fs := NewMemFS()
		for i, data := range [][]byte{a, b, c} {
			if len(data) == 0 {
				continue
			}
			first := uint64(i + 1)
			if len(data) >= 16 {
				first = binary.LittleEndian.Uint64(data[8:16])
			}
			w, err := fs.Create("wal/" + segName(first))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}

		tl, trec, terr := OpenTailer(fs, "wal")
		l, orec, oerr := Open(fs, Options{Dir: "wal"})
		if errClass(terr) != errClass(oerr) {
			t.Fatalf("OpenTailer: %v; Open: %v", terr, oerr)
		}
		if terr != nil {
			return
		}
		defer l.Close()
		if trec.LastLSN != orec.LastLSN || trec.TornTail != orec.TornTail ||
			!slices.EqualFunc(trec.Records, orec.Records, bytes.Equal) {
			t.Fatalf("OpenTailer recovered %d records through LSN %d (torn %v); Open %d through %d (torn %v)",
				len(trec.Records), trec.LastLSN, trec.TornTail, len(orec.Records), orec.LastLSN, orec.TornTail)
		}
		if more, err := tl.Poll(); err != nil || len(more) != 0 {
			t.Fatalf("Poll after Open's repair = %d records, err %v", len(more), err)
		}
		_, rec, err := OpenTailer(fs, "wal")
		if err != nil || rec.TornTail || rec.LastLSN != orec.LastLSN ||
			!slices.EqualFunc(rec.Records, orec.Records, bytes.Equal) {
			t.Fatalf("repaired log does not reopen cleanly: err %v, %+v", err, rec)
		}
	})
}

// FuzzParseCheckpointFile: the checkpoint file parser never panics, and
// whatever it accepts is exactly what the writer would have produced for
// the same LSN and payload — no byte of an accepted file goes unchecked.
func FuzzParseCheckpointFile(f *testing.F) {
	fs := NewMemFS()
	l, _ := mustOpen(f, fs, Options{Dir: "wal"})
	appendN(f, l, 0, 5)
	if _, err := l.WriteCheckpoint([]byte("state after five records")); err != nil {
		f.Fatal(err)
	}
	l.Close()
	ckpt := readAll(f, fs, "wal/"+ckptName(5))[0]
	f.Add(ckpt)
	f.Add(ckpt[:len(ckpt)-1])
	f.Add(flipped(ckpt, len(ckpt)/2))
	f.Add(flipped(ckpt, 9)) // version field
	f.Add(buildCheckpointFile(0, nil))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, lsn, err := parseCheckpointFile(data)
		if err != nil {
			return
		}
		if got := buildCheckpointFile(lsn, body); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes that rebuild as %d different ones (lsn %d)", len(data), len(got), lsn)
		}
	})
}
