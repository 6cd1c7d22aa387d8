package wq

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// frame is body as one message on the wire: its size line, then itself.
func frame(body string) string { return fmt.Sprintf("%d\n%s", len(body), body) }

// FuzzBatchDispatch feeds an arbitrary byte stream to the master's
// per-connection protocol handler — the hello, the framing, results for
// tasks the connection does and does not own. The checked-in corpus holds
// each way a frame can be out of protocol: a line that is not a size
// (mixed-framing), a size over maxFrame (proto-overflow), a body cut short
// by the frame (short-body) or by the stream (truncated-batch), bytes after
// the object (trailing-bytes), and a "-1" line (minus-one-line). The
// handler must never panic and must keep the dispatch-plane accounting
// consistent: no negative in-flight or queue counts, no matter how the
// peer lies.
func FuzzBatchDispatch(f *testing.F) {
	hello := frame(`{"type":"hello","name":"w","cores":2}`)
	f.Add([]byte(hello + frame(`{"type":"results","results":[{"task_id":1,"worker":"w"}]}`)))
	f.Add([]byte(hello + frame(`{"type":"results","results":[{"task_id":1},{"task_id":2}]}`)))
	f.Add([]byte(hello + frame(`{"type":"results","results":[{"task_id":1},{"task_id":1}]}`)))
	f.Add([]byte(hello + frame(`{"type":"results","results":[{"task_id":-9223372036854775808}]}`)))
	f.Add([]byte(hello + frame(`{"type":"results","results":[null,null]}`)))
	f.Add([]byte(hello + frame(`{"type":"bogus"}`) + frame(`{"type":"tasks"}`)))
	f.Add([]byte(frame(`{"type":"hello","cores":-1}`)))
	f.Add([]byte(frame(`{"type":"bogus"}`)))
	f.Add([]byte("not json at all"))
	f.Add([]byte(hello + frame(`{"type":"results","results":[{"task_id":3,"exit_code":170,"error":"x","outputs":[{"name":"o","data":"aGk="}]}]}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newLocalMaster()
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			m.serveWorker(newConn(server))
			server.Close() // as wire.Serve does once the handler returns
			close(done)
		}()
		// Real queued work, so a valid fuzzed hello draws genuine
		// dispatch traffic whose results the stream may then forge.
		for i := 0; i < 4; i++ {
			if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
				t.Fatal(err)
			}
		}
		// Drain the master's side of the synchronous pipe so its
		// dispatcher can never block on us.
		go io.Copy(io.Discard, client)
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		client.Write(data) // error just means the handler hung up first
		client.Close()
		<-done
		if n := m.running.Load(); n < 0 {
			t.Fatalf("in-flight count went negative: %d", n)
		}
		if n := m.d.pending.Load(); n < 0 {
			t.Fatalf("queue depth went negative: %d", n)
		}
		if s := m.Stats(); s.TasksDone > s.TasksDispatched {
			t.Fatalf("more results than dispatches: %+v", s)
		}
	})
}
