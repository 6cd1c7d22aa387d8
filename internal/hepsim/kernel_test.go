package hepsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// kernelPattern fills n bytes with a fixed pattern that differs between
// neighbouring events of every size the known-answer table uses.
func kernelPattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + i>>8 + 1)
	}
	return data
}

// TestKernelKnownAnswers pins the digest stream itself. The benchmark
// oracle reduces with this same kernel, so it cannot see a drift: these
// constants were computed by the one-pass-at-a-time scalar kernel, for two
// events of kernelPattern at each size and passes 0–8. Work 1 also hashes
// the pair among filler events, at every position of a nine-event run, so
// each of the four event lanes and the scalar tail must reproduce pass 0.
func TestKernelKnownAnswers(t *testing.T) {
	want := map[int][2][9]uint64{
		1: {
			{0xaf63bc4c8601b62c, 0xaf63bd4c8601b7df, 0xaf63be4c8601b992, 0xaf63bf4c8601bb45, 0xaf63b84c8601af60, 0xaf63b94c8601b113, 0xaf63ba4c8601b2c6, 0xaf63bb4c8601b479, 0xaf63c44c8601c3c4},
			{0xaf64394c86028a93, 0xaf64384c860288e0, 0xaf643b4c86028df9, 0xaf643a4c86028c46, 0xaf643d4c8602915f, 0xaf643c4c86028fac, 0xaf643f4c860294c5, 0xaf643e4c86029312, 0xaf64414c8602982b},
		},
		7: {
			{0x421c550202d61811, 0x9e200c038b16498a, 0xde3f29f4880dc4c3, 0x99333ca236a1d1cc, 0xf171c7a1cb91cedd, 0xe3c2310be1e00b26, 0xbe6d81bba70d0d7f, 0x36bf4f416540dc38, 0x42a53741e763f2a9},
			{0x439da10cd7feb8b4, 0x7f2c41c3a9f22047, 0x21d283c5f8e49a26, 0x2838a7a85b918dd1, 0xc55ef238b54b9a48, 0x183718580b169fcb, 0x98c41001075b006a, 0x9e062945505a9585, 0x880a0c2206079b2c},
		},
		1001: {
			{0xc2f3103ae6f7bb6b, 0xf70f40c1a75d3240, 0x78286953a7e214e9, 0xbc0caeccf77311be, 0x1cb0d458d9bd3fc7, 0xe9b632c20f59106c, 0xa04c9f97c1cff865, 0x617f4cb0312a634a, 0x99c035b82f70b883},
			{0x6919111a4a2b6a5e, 0xe61d11f536982701, 0xed9c9cca6f1b54a0, 0x01bb83a4fe5f8dbb, 0x7b7204900b21e67a, 0x9d515517b9dc190d, 0xff208676bbc3387c, 0x47285e5cdea5d307, 0x2e0260f4ffc98116},
		},
		4096: {
			{0x093385744dadad25, 0x830d47af7e5ed724, 0x7afce48cf2305727, 0xe4a4dcbff3b07f26, 0x0290ced1a5747f21, 0x7817c079f7fc5f20, 0xc495ce4632748523, 0x0fc5611415cc7f22, 0x88c9b22f67c6a52d},
			{0xeee93efeea77b925, 0xd2322d37a474c724, 0x7268e0d99b33ed27, 0x31681d354ba93d26, 0x54b5663f86ca2121, 0xf5058438d843c320, 0x3a4004ed87259723, 0x02a0a62bc446ab22, 0x193accd33522cb2d},
		},
	}
	for size, events := range want {
		data := kernelPattern(2 * size)
		for work := 1; work <= 9; work++ {
			k, err := NewKernel(size, work)
			if err != nil {
				t.Fatal(err)
			}
			out, n := k.ProcessAll(data)
			if n != 2 || len(out) != 2*8*work {
				t.Fatalf("size %d work %d: %d events, %d digest bytes", size, work, n, len(out))
			}
			for e, passes := range events {
				for pass := 0; pass < work; pass++ {
					if got := binary.LittleEndian.Uint64(out[(e*work+pass)*8:]); got != passes[pass] {
						t.Errorf("size %d work %d event %d pass %d: %#016x, want %#016x", size, work, e, pass, got, passes[pass])
					}
				}
			}
		}
		k, _ := NewKernel(size, 1)
		for at := 0; at+2 <= 9; at++ {
			data := make([]byte, 9*size)
			for i := range data {
				data[i] = byte(i*29 + 0x5a)
			}
			copy(data[at*size:], kernelPattern(2*size))
			out, n := k.ProcessAll(data)
			if n != 9 || len(out) != 9*8 {
				t.Fatalf("size %d pair at %d: %d events, %d digest bytes", size, at, n, len(out))
			}
			for e, passes := range events {
				if got := binary.LittleEndian.Uint64(out[(at+e)*8:]); got != passes[0] {
					t.Errorf("size %d work 1 event %d of 9: %#016x, want %#016x", size, at+e, got, passes[0])
				}
			}
		}
	}
}

// TestKernelMatchesScalar compares AppendDigests with the one-pass-at-a-time
// loop for every input length 0–64 at an odd event size and work factors
// 1–9, so trailing partial events and every WorkFactor mod 4 are covered.
func TestKernelMatchesScalar(t *testing.T) {
	const size = 5
	data := kernelPattern(64)
	for work := 1; work <= 9; work++ {
		k, _ := NewKernel(size, work)
		for n := 0; n <= len(data); n++ {
			var want []byte
			for i := 0; i+size <= n; i += size {
				for pass := 0; pass < work; pass++ {
					want = binary.LittleEndian.AppendUint64(want, fnv1a(uint64(pass), data[i:i+size]))
				}
			}
			prefix := []byte("dst")
			got, events := k.AppendDigests(append([]byte(nil), prefix...), data[:n])
			if events != n/size || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("work %d length %d: %d events, digests %x, want %x", work, n, events, got, want)
			}
		}
	}
}

var kernelSink []byte

// BenchmarkKernel reduces 1 MiB into a dst sized by DigestBytes: the
// stream and stage executors' Work 1 at a small and a large event, and the
// simulation executor's Work 4.
func BenchmarkKernel(b *testing.B) {
	data := kernelPattern(1 << 20)
	for _, c := range []struct{ work, size int }{{1, 32}, {1, 4 << 10}, {4, 1 << 10}} {
		b.Run(fmt.Sprintf("work%d-%dB", c.work, c.size), func(b *testing.B) {
			k, _ := NewKernel(c.size, c.work)
			dst := make([]byte, 0, k.DigestBytes(len(data)))
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernelSink, _ = k.AppendDigests(dst[:0], data)
			}
		})
	}
}
