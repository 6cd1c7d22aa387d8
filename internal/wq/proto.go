package wq

import (
	"net"

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
// A task carries its argument record (wrapper.Args) and a result the
// task's wrapper report (wrapper.Report), each as a typed field, so each
// is encoded once, by the sender's frame encoder, and decoded once, in
// place, by the receiver's; a record that does not decode fails its frame
// and breaks the connection like any other malformed message.
//
// One message carries up to batchMax tasks (or results), so a worker
// asking for K cores costs one wire round instead of K. Every peer lives in
// this module, so there is nothing to negotiate. Unknown message types are
// ignored on both sides, so the protocol stays forward-extensible.

// batchMax bounds the tasks or results carried by one message: large
// enough to amortise framing and syscalls across a whole worker's cores,
// small enough that one message stays far inside maxFrame.
const batchMax = 64

// maxFrame bounds one message's JSON body, and with it what a peer can
// make a master or worker hold: a size line over it ends the
// connection before a byte of the body is read. It is sized to the largest
// message any caller sends. A task carries its typed argument record,
// never files: an analysis task frames as about 0.3 KB, and core keeps a
// merge task's input paths within 14 KiB, so a batch of 64 merges stays
// under 1 MiB. A result carries its task's compact report: an analysis
// task's result frames as 403 B (BenchmarkResultFrame), so a full batch
// is about 26 KB; at the worst case, every duration and metric at its
// widest and an error string, a result is 0.9 KB and the batch 57 KB
// (TestWorstCaseResultsFitFrame).
const maxFrame = 1 << 20

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
// results it decodes are fresh objects that may outlive m, and returns the
// size of its body. It is the master's reader; a worker reads its task
// frames into records it reuses (taskFrame).
func recv(c *wire.Conn, m *message) (int, error) {
	*m = message{}
	return c.ReadFrame(maxFrame, m)
}
