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
// message any caller sends. A task carries arguments, never files, so the
// largest is a 64-result batch carrying reports: at about 530 B of report
// per result (an analysis task's, measured) it stays under 100 KB. 1 MiB
// holds it ten times over.
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
// results it decodes are fresh objects that may outlive m.
func recv(c *wire.Conn, m *message) error {
	*m = message{}
	return c.ReadFrame(maxFrame, m)
}
