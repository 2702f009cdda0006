package graph

import (
	"slices"
	"testing"
)

// decodeChunk collects a chunk payload's pairs, flat.
func decodeChunk(data []byte, n int) ([]uint32, error) {
	var out []uint32
	err := eachChunk(data, n, func(ui, vi uint32) error {
		out = append(out, ui, vi)
		return nil
	})
	return out, err
}

// logChunkOf appends pairs to a fresh edge log (fewer than a chunk's
// worth, so they stay in the active buffer) and returns its payload.
func logChunkOf(pairs []uint32) []byte {
	var l edgeLog
	for k := 0; k+1 < len(pairs); k += 2 {
		l.append(pairs[k], pairs[k+1])
	}
	return l.active
}

// FuzzEdgeLogChunk decodes arbitrary bytes as an LEC1 chunk payload —
// what a spilled chunk file holds after its header — claiming n edges.
// No input may panic; the seeds, real edge-log output, must round-trip
// their pairs; and any payload that decodes must re-encode to one that
// decodes to the same pairs.
func FuzzEdgeLogChunk(f *testing.F) {
	for _, pairs := range [][]uint32{
		{},
		{0, 1},
		{0, 1, 1, 2, 2, 0, 127, 128, 16383, 16384},
		{1<<32 - 1, 0, 0, 1<<32 - 1, 1 << 28, 1<<21 - 1},
	} {
		data := logChunkOf(pairs)
		got, err := decodeChunk(data, len(pairs)/2)
		if err != nil || !slices.Equal(got, pairs) {
			f.Fatalf("seed %v decodes to %v, %v", pairs, got, err)
		}
		f.Add(data, uint16(len(pairs)/2))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x10, 0x00}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		pairs, err := decodeChunk(data, int(n))
		if err != nil {
			return
		}
		if len(pairs) != 2*int(n) {
			t.Fatalf("%d edges decoded to %d indices", n, len(pairs))
		}
		var enc []byte
		for _, x := range pairs {
			enc = appendUv(enc, uint64(x))
		}
		again, err := decodeChunk(enc, int(n))
		if err != nil || !slices.Equal(again, pairs) {
			t.Fatalf("re-encoded %v decodes to %v, %v", pairs, again, err)
		}
	})
}
