package wq

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
)

// The wire protocol is newline-delimited JSON messages in both directions.
//
//	worker → master:  hello {name, cores, proto}
//	master → worker:  hello {proto}           (batch capability ack, proto ≥ 1 peers only)
//	master → worker:  task {task}             (v0 single-task framing)
//	master → worker:  tasks {tasks}           (batch framing, proto ≥ 1 peers)
//	worker → master:  result {result}         (v0 single-result framing)
//	worker → master:  results {results}       (batch framing, only after the master's ack)
//	either direction: ping {}
//
// Batch framing carries one message per K tasks (or results) instead of one
// message per task, so a worker asking for K cores costs one wire round
// instead of K. Capability is negotiated in the hello exchange: a worker
// advertises proto ≥ 1, the master acks with its own hello, and only then
// does either side use the batch message types — an old peer on either end
// degrades the connection to the v0 single-message framing with no
// configuration. Unknown message types are ignored on both sides, so the
// protocol stays forward-extensible.
//
// Cacheable input files are sent with data the first time a given content
// hash crosses a connection and with hash only afterwards; each side keeps a
// per-connection record of what the peer holds plus a process-wide content
// cache. Within a batch, tasks are decoded in slice order, preserving the
// data-before-hash-only invariant.

// protoBatch is the protocol feature level at which batch framing is
// understood. Level 0 peers speak one task or result per message.
const protoBatch = 1

// batchMax bounds the tasks or results carried by one batch message: large
// enough to amortise framing and syscalls across a whole worker's cores,
// small enough that one message never buffers an unbounded payload.
const batchMax = 64

type message struct {
	Type    string    `json:"type"`
	Name    string    `json:"name,omitempty"`
	Cores   int       `json:"cores,omitempty"`
	Proto   int       `json:"proto,omitempty"`
	Task    *Task     `json:"task,omitempty"`
	Result  *Result   `json:"result,omitempty"`
	Tasks   []*Task   `json:"tasks,omitempty"`
	Results []*Result `json:"results,omitempty"`
}

// conn wraps a net.Conn with JSON framing and a write lock so multiple
// goroutines can send. The encoder and decoder are created once per
// connection and reused for every message — the per-message cost is the
// marshal itself, never a fresh encoder or framing buffer — and the
// receive side decodes into a reused message struct, so steady-state
// traffic allocates only the payload objects that escape to the caller.
type conn struct {
	raw net.Conn
	dec *json.Decoder

	wmu sync.Mutex
	enc *json.Encoder

	rmsg message // recv scratch; valid until the next recv call
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, dec: json.NewDecoder(raw), enc: json.NewEncoder(raw)}
}

func (c *conn) send(m *message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("wq: sending %s: %w", m.Type, err)
	}
	return nil
}

// recv decodes the next message into the connection's reusable scratch
// struct. The returned pointer is only valid until the next recv call;
// payload objects (tasks, results) are freshly allocated and may escape.
func (c *conn) recv() (*message, error) {
	c.rmsg = message{}
	if err := c.dec.Decode(&c.rmsg); err != nil {
		return nil, err
	}
	return &c.rmsg, nil
}

func (c *conn) close() error { return c.raw.Close() }

// contentCache is a process-wide store of cacheable file contents by hash,
// shared by all of a worker's slots (the paper's single cache directory per
// worker) or by all of a foreman's downstream connections.
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
