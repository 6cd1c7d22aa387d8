package wq

import (
	"fmt"
	"net"
	"sync"

	"lobster/internal/wire"
)

// The wire protocol is one framing in both directions: a message is a
// size line, then exactly that many bytes of one JSON object
// (wire.Conn.SendFrame / ReadFrame).
//
//	worker → master:  hello {name, cores}
//	master → worker:  tasks {tasks}
//	worker → master:  results {results}
//
// One message carries up to batchMax tasks (or results), so a worker
// asking for K cores costs one wire round instead of K. Every peer lives in
// this module, so there is nothing to negotiate. Unknown message types are
// ignored on both sides, so the protocol stays forward-extensible.
//
// Cacheable input files are sent with data the first time a given content
// hash crosses a connection and with hash only afterwards; each side keeps a
// per-connection record of what the peer holds plus a process-wide content
// cache. Within a batch, tasks are decoded in slice order, preserving the
// data-before-hash-only invariant.

// batchMax bounds the tasks or results carried by one message: large
// enough to amortise framing and syscalls across a whole worker's cores,
// small enough that one message stays far inside maxFrame.
const batchMax = 64

// maxFrame bounds one message's JSON body, and with it what a peer can
// make a master or worker hold: a size line over it ends the
// connection before a byte of the body is read. It is sized to the largest
// message any caller sends. Production messages are small — a 64-task
// batch is tens of KB, since task data travels over xrootd and chirp and a
// result carries its report — while a task that ships its input files in
// the message carries them base64-encoded, 4/3 of their size:
// TestLargePayloadRoundTrip's 8 MiB file is ≈ 11 MiB of JSON each way.
// 16 MiB holds that with room to spare.
const maxFrame = 16 << 20

type message struct {
	Type    string    `json:"type"`
	Name    string    `json:"name,omitempty"`
	Cores   int       `json:"cores,omitempty"`
	Tasks   []*Task   `json:"tasks,omitempty"`
	Results []*Result `json:"results,omitempty"`
}

// newConn wraps one master or worker connection. The reader holds
// a batch of small tasks or results whole; a bigger message goes past
// both buffers straight between the socket and the codec.
func newConn(nc net.Conn) *wire.Conn { return wire.NewConn("wq", nc, 4<<10, 4<<10) }

// recv reads the next message into m, zeroed first so the tasks and
// results it decodes are fresh objects that may outlive m.
func recv(c *wire.Conn, m *message) error {
	*m = message{}
	return c.ReadFrame(maxFrame, m)
}

// contentCache is a process-wide store of cacheable file contents by hash,
// shared by all of a worker's slots (the paper's single cache directory per
// worker).
type contentCache struct {
	mu    sync.RWMutex
	items map[string][]byte
}

func newContentCache() *contentCache {
	return &contentCache{items: make(map[string][]byte)}
}

func (cc *contentCache) get(hash string) ([]byte, bool) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	data, ok := cc.items[hash]
	return data, ok
}

func (cc *contentCache) put(hash string, data []byte) {
	cc.mu.Lock()
	cc.items[hash] = data
	cc.mu.Unlock()
}

// Len returns the number of cached objects.
func (cc *contentCache) len() int {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return len(cc.items)
}

// sentSet tracks which hashes the peer on one connection already holds.
type sentSet struct {
	mu   sync.Mutex
	sent map[string]bool
}

func newSentSet() *sentSet { return &sentSet{sent: make(map[string]bool)} }

// markSent records hash and reports whether it was already sent.
func (s *sentSet) markSent(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sent[hash] {
		return true
	}
	s.sent[hash] = true
	return false
}

// encodeInputsInto prepares a task's inputs for transmission on a
// connection: cacheable files get their hash computed, and their data is
// stripped when the peer has already received that hash. Tasks without
// cacheable inputs pass through untouched; tasks that need the stripped
// copy write it into scratch (a per-connection reusable Task), so the
// dispatch hot path never allocates a fresh Task or FileSpec slice once
// the scratch capacity has warmed up.
func encodeInputsInto(scratch *Task, task *Task, peer *sentSet) *Task {
	needsCopy := false
	for i := range task.Inputs {
		if task.Inputs[i].Cacheable {
			needsCopy = true
			break
		}
	}
	if !needsCopy {
		return task
	}
	inputs := scratch.Inputs[:0]
	if cap(inputs) < len(task.Inputs) {
		inputs = make([]FileSpec, 0, len(task.Inputs))
	}
	*scratch = *task
	scratch.Inputs = append(inputs, task.Inputs...)
	for i := range scratch.Inputs {
		f := &scratch.Inputs[i]
		if !f.Cacheable {
			continue
		}
		if f.Hash == "" {
			f.Hash = hashBytes(f.Data)
			// Publish the hash on the caller's task too, so later
			// connections skip re-hashing the same immutable payload.
			task.Inputs[i].Hash = f.Hash
		}
		if peer.markSent(f.Hash) {
			f.Data = nil // peer already holds it
		}
	}
	return scratch
}

// decodeInputs resolves received inputs against the local content cache,
// storing newly-arrived cacheable data and filling in stripped data.
// It returns cache hit/miss counts, or an error when a stripped input is
// missing from the cache (protocol violation or evicted cache).
func decodeInputs(task *Task, cache *contentCache) (hits, misses int, err error) {
	for i := range task.Inputs {
		f := &task.Inputs[i]
		if !f.Cacheable {
			continue
		}
		if f.Data != nil {
			if f.Hash == "" {
				f.Hash = hashBytes(f.Data)
			}
			cache.put(f.Hash, f.Data)
			misses++
			continue
		}
		data, ok := cache.get(f.Hash)
		if !ok {
			return hits, misses, fmt.Errorf("wq: input %s (hash %.12s…) not in cache", f.Name, f.Hash)
		}
		f.Data = data
		hits++
	}
	return hits, misses, nil
}
