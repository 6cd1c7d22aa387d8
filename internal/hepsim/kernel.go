// Package hepsim provides the synthetic HEP application and the worker-side
// task scaffolding that stands in for CMSSW: an event-processing kernel with
// a controllable CPU/byte ratio, an analysis executor that reads LHC-style
// event data (streamed over the xrootd federation or staged ahead of time),
// and a simulation executor that generates events and overlays pile-up.
//
// Executors follow the paper's wrapper structure (package wrapper): every
// task runs the same segmented pre/post-processing and returns a Report.
package hepsim

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"lobster/internal/stats"
)

// DefaultEventSize matches the paper's ~100 kB per event. Tests use smaller
// events to stay fast.
const DefaultEventSize = 100 << 10

// Kernel is the synthetic per-event computation. WorkFactor scales CPU cost
// per byte: each event is hashed WorkFactor times, and an 8-byte digest per
// pass is emitted, so output size = 8*WorkFactor per event — the order-of-
// magnitude reduction typical of HEP analysis.
type Kernel struct {
	EventSize  int
	WorkFactor int
}

// NewKernel returns a kernel with validated parameters.
func NewKernel(eventSize, workFactor int) (*Kernel, error) {
	if eventSize <= 0 {
		return nil, fmt.Errorf("hepsim: event size %d", eventSize)
	}
	if workFactor <= 0 {
		workFactor = 1
	}
	return &Kernel{EventSize: eventSize, WorkFactor: workFactor}, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a computes a 64-bit FNV-1a hash seeded so repeated passes differ.
func fnv1a(seed uint64, data []byte) uint64 {
	h := seed ^ fnvOffset
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// fnv1a4 is fnv1a for the four seeds seed … seed+3 over one read of data.
// Each chain's multiply waits on its own previous byte only, so the four
// overlap where one chain alone is latency-bound.
func fnv1a4(seed uint64, data []byte) (h0, h1, h2, h3 uint64) {
	h0, h1, h2, h3 = seed^fnvOffset, (seed+1)^fnvOffset, (seed+2)^fnvOffset, (seed+3)^fnvOffset
	for _, b := range data {
		x := uint64(b)
		h0 = (h0 ^ x) * fnvPrime
		h1 = (h1 ^ x) * fnvPrime
		h2 = (h2 ^ x) * fnvPrime
		h3 = (h3 ^ x) * fnvPrime
	}
	return h0, h1, h2, h3
}

// fnv1aEvents4 is fnv1a with seed 0 over each of the four consecutive
// events of size bytes that group holds: the same four overlapping chains
// as fnv1a4, one per event instead of one per pass.
func fnv1aEvents4(group []byte, size int) (h0, h1, h2, h3 uint64) {
	// Re-slicing to len(e0) is what lets the compiler drop the bounds
	// checks on e1[i], e2[i] and e3[i] in the loop.
	e0 := group[:size]
	e1 := group[size : 2*size][:len(e0)]
	e2 := group[2*size : 3*size][:len(e0)]
	e3 := group[3*size : 4*size][:len(e0)]
	h0, h1, h2, h3 = fnvOffset, fnvOffset, fnvOffset, fnvOffset
	for i, b := range e0 {
		h0 = (h0 ^ uint64(b)) * fnvPrime
		h1 = (h1 ^ uint64(e1[i])) * fnvPrime
		h2 = (h2 ^ uint64(e2[i])) * fnvPrime
		h3 = (h3 ^ uint64(e3[i])) * fnvPrime
	}
	return h0, h1, h2, h3
}

// Events returns how many whole events data contains.
func (k *Kernel) Events(dataLen int) int { return dataLen / k.EventSize }

// DigestBytes returns the output size of reducing dataLen input bytes.
func (k *Kernel) DigestBytes(dataLen int) int { return k.Events(dataLen) * 8 * k.WorkFactor }

// AppendDigests reduces every whole event in data, appending the digests
// to dst in place: with DigestBytes(len(data)) of spare capacity in dst
// it allocates nothing. It returns the extended slice and the number of
// events processed.
//
// One FNV-1a chain is latency-bound, so the kernel keeps four in flight:
// at Work 1 over four events at a time, above it over four passes of one
// event. Each shape has a loop of its own so that neither pays for the
// other's code.
func (k *Kernel) AppendDigests(dst, data []byte) ([]byte, int) {
	n := k.Events(len(data))
	if k.WorkFactor == 1 {
		return k.appendEventLanes(dst, data, n), n
	}
	return k.appendPassLanes(dst, data, n), n
}

// appendEventLanes is AppendDigests at Work 1: events four at a time in
// fnv1aEvents4, the n mod 4 left over one at a time.
func (k *Kernel) appendEventLanes(dst, data []byte, n int) []byte {
	size := k.EventSize
	i := 0
	for ; i+4 <= n; i += 4 {
		h0, h1, h2, h3 := fnv1aEvents4(data[i*size:(i+4)*size], size)
		dst = binary.LittleEndian.AppendUint64(dst, h0)
		dst = binary.LittleEndian.AppendUint64(dst, h1)
		dst = binary.LittleEndian.AppendUint64(dst, h2)
		dst = binary.LittleEndian.AppendUint64(dst, h3)
	}
	for ; i < n; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, fnv1a(0, data[i*size:(i+1)*size]))
	}
	return dst
}

// appendPassLanes is AppendDigests above Work 1: an event's passes four
// at a time in fnv1a4, the WorkFactor mod 4 left over one at a time (all
// of them at Work 2 and 3).
func (k *Kernel) appendPassLanes(dst, data []byte, n int) []byte {
	for i := 0; i < n; i++ {
		event := data[i*k.EventSize : (i+1)*k.EventSize]
		pass := 0
		for ; pass+4 <= k.WorkFactor; pass += 4 {
			h0, h1, h2, h3 := fnv1a4(uint64(pass), event)
			dst = binary.LittleEndian.AppendUint64(dst, h0)
			dst = binary.LittleEndian.AppendUint64(dst, h1)
			dst = binary.LittleEndian.AppendUint64(dst, h2)
			dst = binary.LittleEndian.AppendUint64(dst, h3)
		}
		for ; pass < k.WorkFactor; pass++ {
			dst = binary.LittleEndian.AppendUint64(dst, fnv1a(uint64(pass), event))
		}
	}
	return dst
}

// ProcessAll reduces every whole event in data, returning the concatenated
// digests and the number of events processed.
func (k *Kernel) ProcessAll(data []byte) ([]byte, int) {
	return k.AppendDigests(make([]byte, 0, k.DigestBytes(len(data))), data)
}

// GenerateEvents synthesises n events of pseudo-random detector data, the
// role of the Monte Carlo generation step in simulation tasks. Deterministic
// for a given rng state: the bytes are rng.Fill's, so a caller that fills
// its own buffer in pieces of whole 8-byte draws produces the same ones.
func (k *Kernel) GenerateEvents(n int, rng *stats.Rand) []byte {
	data := make([]byte, n*k.EventSize)
	rng.Fill(data)
	return data
}

// OverlayPileup mixes pile-up (noise) events into signal events in place:
// each signal event is XOR-combined with a pile-up event chosen round-robin.
// The pile-up sample is the small external input simulation tasks stream in.
func (k *Kernel) OverlayPileup(signal, pileup []byte) error {
	return k.OverlayPileupAt(signal, pileup, 0)
}

// OverlayPileupAt is OverlayPileup for a signal slice whose first event
// is event number first of its task, so a task overlaid slice by slice
// picks the same pile-up events as one overlaid whole.
func (k *Kernel) OverlayPileupAt(signal, pileup []byte, first int) error {
	if len(pileup) < k.EventSize {
		return fmt.Errorf("hepsim: pile-up sample smaller than one event (%d < %d)", len(pileup), k.EventSize)
	}
	pileupEvents := k.Events(len(pileup))
	for i := 0; i < k.Events(len(signal)); i++ {
		p := (first + i) % pileupEvents
		sig := signal[i*k.EventSize : (i+1)*k.EventSize]
		subtle.XORBytes(sig, sig, pileup[p*k.EventSize:(p+1)*k.EventSize])
	}
	return nil
}
