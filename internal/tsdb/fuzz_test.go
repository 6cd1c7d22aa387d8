package tsdb

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// FuzzBlockRoundTrip drives the block codec two ways from one input:
// interpret the bytes as (delta, value) pairs, encode, and require a
// bit-exact decode; then feed the raw bytes straight to the decoder,
// which must never panic or over-read on arbitrary payloads.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(binary.BigEndian.AppendUint64(nil, math.Float64bits(3.14159)))
	seed := make([]byte, 0, 64)
	for i := 0; i < 4; i++ {
		seed = binary.BigEndian.AppendUint64(seed, uint64(i*5000))
		seed = binary.BigEndian.AppendUint64(seed, math.Float64bits(float64(i)*1.5))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Leg 1: structured round-trip.
		type pair struct {
			t int64
			v float64
		}
		var pairs []pair
		tm := int64(0)
		for i := 0; i+16 <= len(data) && len(pairs) < 512; i += 16 {
			delta := int64(binary.BigEndian.Uint64(data[i:])) % (1 << 40)
			tm += delta
			pairs = append(pairs, pair{t: tm, v: math.Float64frombits(binary.BigEndian.Uint64(data[i+8:]))})
		}
		var blk block
		blk.reset(make([]byte, 0, 512*maxSampleBits/8+16))
		for _, p := range pairs {
			if !blk.room() {
				t.Fatalf("no room at %d samples with worst-case capacity", blk.n)
			}
			blk.append(p.t, p.v)
		}
		it := newBlockIter(blk.bytes(), blk.n)
		for i, p := range pairs {
			gt, gv, ok := it.next()
			if !ok {
				t.Fatalf("decode ended early at %d/%d", i, len(pairs))
			}
			if gt != p.t || math.Float64bits(gv) != math.Float64bits(p.v) {
				t.Fatalf("sample %d: got (%d, %x) want (%d, %x)", i, gt, math.Float64bits(gv), p.t, math.Float64bits(p.v))
			}
		}
		if _, _, ok := it.next(); ok {
			t.Fatal("decoded past the end")
		}

		// Leg 2: arbitrary bytes as a block payload must decode (or
		// fail) without panicking, for any claimed sample count.
		hostile := newBlockIter(data, 1024)
		for {
			if _, _, ok := hostile.next(); !ok {
				break
			}
		}
	})
}

// FuzzSegmentReplay feeds arbitrary bytes to the segment replay path as
// the final (torn-tolerant) segment. The record *header* fields — the
// keyLen/count/payLen uvarints — are attacker-controlled here, unlike
// FuzzBlockRoundTrip which only exercises block payloads; a crc-valid
// record with hostile lengths must come back as an error, never a panic
// or an over-read. Each input is tried raw and wrapped in a valid crc
// frame so corrupt-but-checksummed headers are reached every run.
func FuzzSegmentReplay(f *testing.F) {
	frame := func(body []byte) []byte {
		rec := append(append([]byte(nil), body...), 0, 0, 0, 0)
		binary.BigEndian.PutUint32(rec[len(body):], crc32.ChecksumIEEE(body))
		out := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
		return append(out, rec...)
	}
	f.Add([]byte{})
	f.Add(frame(binary.AppendUvarint(nil, math.MaxUint64)))
	f.Add(frame(append(binary.AppendUvarint(nil, 3), "keyjunkjunkjunkjunkjunk"...)))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 64<<20), make([]byte, 8)...)) // torn header claiming the largest record
	// A genuine record to seed valid header shapes.
	var blk block
	blk.reset(make([]byte, 0, 256))
	for i := 0; i < 10; i++ {
		blk.append(int64(i*5000), float64(i))
	}
	body := binary.AppendUvarint(nil, 1)
	body = append(body, 'c')
	body = binary.AppendUvarint(body, uint64(blk.n))
	body = binary.BigEndian.AppendUint64(body, uint64(blk.tFirst))
	body = binary.BigEndian.AppendUint64(body, uint64(blk.tLast))
	body = binary.AppendUvarint(body, uint64(len(blk.bytes())))
	body = append(body, blk.bytes()...)
	f.Add(frame(body))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seg := range [][]byte{data, frame(data)} {
			dir := t.TempDir()
			if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Config{Dir: dir})
			if err != nil {
				continue
			}
			// Whatever replayed must be queryable without panicking.
			for _, sr := range s.Select("c", nil, -1e12, 1e12) {
				_ = sr.Samples
			}
			s.Close()
		}
	})
}
