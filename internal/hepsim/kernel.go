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

// fnv1a computes a 64-bit FNV-1a hash seeded so repeated passes differ.
func fnv1a(seed uint64, data []byte) uint64 {
	const prime = 1099511628211
	h := seed ^ 14695981039346656037
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Events returns how many whole events data contains.
func (k *Kernel) Events(dataLen int) int { return dataLen / k.EventSize }

// DigestBytes returns the output size of reducing dataLen input bytes.
func (k *Kernel) DigestBytes(dataLen int) int { return k.Events(dataLen) * 8 * k.WorkFactor }

// AppendDigests reduces every whole event in data, appending the digests
// to dst in place: with DigestBytes(len(data)) of spare capacity in dst
// it allocates nothing. It returns the extended slice and the number of
// events processed.
func (k *Kernel) AppendDigests(dst, data []byte) ([]byte, int) {
	n := k.Events(len(data))
	for i := 0; i < n; i++ {
		event := data[i*k.EventSize : (i+1)*k.EventSize]
		for pass := 0; pass < k.WorkFactor; pass++ {
			dst = binary.LittleEndian.AppendUint64(dst, fnv1a(uint64(pass), event))
		}
	}
	return dst, n
}

// ProcessAll reduces every whole event in data, returning the concatenated
// digests and the number of events processed.
func (k *Kernel) ProcessAll(data []byte) ([]byte, int) {
	return k.AppendDigests(make([]byte, 0, k.DigestBytes(len(data))), data)
}

// GenerateEvents synthesises n events of pseudo-random detector data, the
// role of the Monte Carlo generation step in simulation tasks. Deterministic
// for a given rng state.
func (k *Kernel) GenerateEvents(n int, rng *stats.Rand) []byte {
	data := make([]byte, n*k.EventSize)
	k.GenerateInto(data, rng)
	return data
}

// GenerateInto is GenerateEvents into a buffer the caller owns: every
// byte of dst is overwritten, one RNG draw per 8 bytes.
func (k *Kernel) GenerateInto(dst []byte, rng *stats.Rand) {
	for ; len(dst) >= 8; dst = dst[8:] {
		binary.LittleEndian.PutUint64(dst, rng.Uint64())
	}
	if len(dst) > 0 {
		v := rng.Uint64()
		for j := range dst {
			dst[j] = byte(v >> (8 * j))
		}
	}
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
