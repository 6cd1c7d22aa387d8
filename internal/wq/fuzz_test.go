package wq

import (
	"bytes"
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
	f.Add([]byte(hello + frame(`{"type":"results","results":[{"task_id":3,"exit_code":40,"error":"x","report":`+
		`{"durations":[0,0,0,9],"metrics":{"bytes_in":1},"exit_code":40,"failed_segment":"stage_in","error":"x"}}]}`)))
	f.Add([]byte(hello + frame(malformedReport)))
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
		if n := m.d.waiting(); n < 0 {
			t.Fatalf("queue depth went negative: %d", n)
		}
		if s := m.Stats(); s.TasksDone > s.TasksDispatched {
			t.Fatalf("more results than dispatches: %+v", s)
		}
	})
}

// streamConn serves one byte stream to a reader, keeps what is written to
// it, and records its hang-up.
type streamConn struct {
	net.Conn
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *streamConn) Close() error                { c.closed = true; return nil }

// FuzzTaskFrame runs the worker's frame reader (recv, what Worker.run
// reads its tasks with) on an arbitrary body framed by its size line. It
// never panics; a body that does not decode breaks the connection, as a
// task whose arguments do not decode breaks a worker's
// (TestMalformedArgsBreakConnection); and a message that decodes
// re-encodes, through the master's frame encoder, to a frame that decodes
// to the same message, its tasks' argument records included. "The same"
// is what the wire sees: both encode to the same bytes, since an empty
// list and none, or one instant in two zones, differ only in memory.
func FuzzTaskFrame(f *testing.F) {
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":1,"func":"analysis","args":{"lfn":"/store/data/f0.root","mode":"stream","run":1,` +
		`"skip_events":32,"max_events":32,"event_size":1024,"work":1,"output":"/store/user/wf/wf_t1_a0.root"},"tag":"analysis","max_retries":10}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":2,"func":"simulation","args":{"events":5000,"seed":7,"pileup":"/pileup/minbias.root","output":"/o"}}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":3,"func":"merge","args":{"output":"/m.root","inputs":["/a","/b","/c"]},"tag":"merge"}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":4,"func":"echo","args":null},null,{"id":5,"func":"echo","trace":"x"}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":6,"func":"echo","args":{"work":"abc"}}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":7,"func":"echo","args":[1]}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":8,"func":"echo","args":{"inputs":"/a","events":1e400}}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":9,"args":{"lfn":"é\ud800","unknown":{}}}]} `))
	f.Add([]byte(`{"type":"tasks","tasks":[]}{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		nc := &streamConn{in: bytes.NewReader([]byte(frame(string(body))))}
		var m message
		if _, err := recv(newConn(nc), &m); err != nil {
			if !nc.closed {
				t.Fatalf("frame %q: %v, and the connection is still open", body, err)
			}
			return
		}
		sent, resent := &streamConn{}, &streamConn{}
		if _, err := newConn(sent).SendFrame(&m); err != nil {
			t.Fatalf("decoded frame %q does not encode: %v", body, err)
		}
		var again message
		if _, err := recv(newConn(&streamConn{in: bytes.NewReader(sent.out.Bytes())}), &again); err != nil {
			t.Fatalf("re-encoded frame %q does not decode: %v", sent.out.Bytes(), err)
		}
		if _, err := newConn(resent).SendFrame(&again); err != nil || !bytes.Equal(resent.out.Bytes(), sent.out.Bytes()) {
			t.Fatalf("round trip changed the message (%v):\n%s\n%s", err, sent.out.Bytes(), resent.out.Bytes())
		}
	})
}
