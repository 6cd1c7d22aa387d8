package wq

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
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

// dirtyFrame is a task frame with every field of every task set, merge
// inputs and event ranges included: what the worker's reused records hold
// when FuzzTaskFrame reads its input into them.
var dirtyFrame = `{"type":"tasks","name":"n","cores":9,"tasks":[` +
	`{"id":101,"func":"merge","args":{"lfn":"/l","mode":"stage","run":7,"skip_events":32,"max_events":64,"event_size":512,` +
	`"work":4,"events":99,"seed":3,"pileup":"/p","inputs":["/a","/b","/c"],"output":"/m"},"tag":"merge","max_retries":3,"trace":"t"},` +
	`{"id":102,"func":"analysis","args":{"lfn":"/x","skip_events":1,"inputs":["/d"]},"tag":"t2","max_retries":1,"trace":"u"},` +
	`{"id":103,"func":"simulation","args":{"events":5,"seed":9,"output":"/o"},"tag":"t3","max_retries":2,"trace":"v"}]}`

// taskFrameBound is the most the worker's frame reader may allocate for
// an n-byte body, its connection's buffers and its first records
// included: 64·n + 16 KiB. The linear term is encoding/json's: its
// scanner's stack, which grows by a word per open bracket (about 33 B a
// byte of '['), the decoder's buffer, which holds the body, a fresh Task
// (and Args) for each task past the records, which stop growing at
// batchMax (about 41 B a byte of "{}," tasks, the list that holds them
// included), and the strings, about a byte per byte. The constant is the
// connection's two 4 KiB buffers and the decoder.
func taskFrameBound(n int) uint64 { return 64*uint64(n) + 16<<10 }

// taskFrameAllocated is the heap bytes the worker's reader allocates to
// read body off a new connection into new records: the least of three
// tries, so that an allocation of the fuzzing engine's own in between is
// not charged to the reader.
func taskFrameAllocated(body []byte) uint64 {
	framed := []byte(frame(string(body)))
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		nc := &streamConn{in: bytes.NewReader(framed)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var f taskFrame
		_ = f.read(newConn(nc))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzTaskFrame runs the worker's frame reader on an arbitrary body
// framed by its size line. It never panics, and allocates at most
// taskFrameBound of the body's size. A body that does not decode breaks
// the connection, as a task whose arguments do not decode breaks a
// worker's (TestMalformedArgsBreakConnection). A message that decodes
// re-encodes, through the master's frame encoder, to a frame that decodes
// to the same message, its tasks' argument records included. "The same"
// is what the wire sees: both encode to the same bytes, since an empty
// list and none, or one instant in two zones, differ only in memory.
//
// The worker reads every frame into records it reuses, so the body is
// also read into records that dirtyFrame filled first, as the worker's
// receive loop reads it: it must read exactly as into fresh ones (up to a
// zero argument record, which reaches the executor as none), so that no
// field of an earlier task survives, a null entry is still a task that
// starts nothing, and a body that does not decode still breaks the
// connection.
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
	f.Add([]byte(`{"type":"tasks","tasks":[{"id":10,"func":"analysis","args":{"lfn":"/f"}},{"id":11,"args":{}},{"id":12},null,{"id":13}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[null,null,null,null]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]}`))
	f.Add([]byte(`{"type":"tasks","tasks":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, bound := taskFrameAllocated(body), taskFrameBound(len(body)); got > bound {
			t.Fatalf("reading a %d-byte body allocated %d B, over the bound of %d", len(body), got, bound)
		}
		nc := &streamConn{in: bytes.NewReader([]byte(frame(string(body))))}
		var m message
		_, err := recv(newConn(nc), &m)
		if err != nil && !nc.closed {
			t.Fatalf("frame %q: %v, and the connection is still open", body, err)
		}

		// The first dirty frame makes the records, the second fills them.
		reused := &streamConn{in: bytes.NewReader([]byte(frame(dirtyFrame) + frame(dirtyFrame) + frame(string(body))))}
		rc := newConn(reused)
		var tf taskFrame
		for range 2 {
			if err := tf.read(rc); err != nil || len(tf.msg.Tasks) != 3 {
				t.Fatalf("the dirty frame reads as %d tasks: %v", len(tf.msg.Tasks), err)
			}
		}
		rerr := tf.read(rc)
		if (rerr != nil) != (err != nil) {
			t.Fatalf("frame %q: read into reused records %v, into fresh ones %v", body, rerr, err)
		}
		if err != nil {
			if !reused.closed {
				t.Fatalf("frame %q: %v into reused records, and the connection is still open", body, rerr)
			}
			return
		}
		fresh := m
		fresh.Tasks = make([]*Task, len(m.Tasks))
		started := 0
		for i, task := range m.Tasks {
			if task != nil {
				c := *task
				c.Args = argsOrNil(c.Args)
				fresh.Tasks[i] = &c
				started++
			}
		}
		for _, task := range tf.msg.Tasks {
			if task != nil {
				started--
			}
		}
		if started != 0 {
			t.Fatalf("frame %q: reused records start %d tasks fewer than fresh ones", body, started)
		}
		want, got := &streamConn{}, &streamConn{}
		newConn(want).SendFrame(&fresh)
		newConn(got).SendFrame(&tf.msg)
		if !bytes.Equal(got.out.Bytes(), want.out.Bytes()) {
			t.Fatalf("frame %q read into reused records as\n%s\nnot\n%s", body, got.out.Bytes(), want.out.Bytes())
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
