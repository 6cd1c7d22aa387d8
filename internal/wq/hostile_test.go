package wq

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"lobster/internal/wrapper"
)

// hostileStreams are what a peer that is not speaking the protocol sends
// instead of a message, followed by 64 MiB of one JSON string that never
// ends: an object with no size line in front of it, and a size line one
// byte over maxFrame.
var hostileStreams = []struct{ name, head string }{
	{"unterminated object", `{"type":"hello","name":"`},
	{"size over maxFrame", strconv.Itoa(maxFrame+1) + "\n" + `{"type":"hello","name":"`},
}

// streamHostile sends head and then up to 64 MiB over c in chunks, stopping
// when the receiver hangs up, and returns whether it did hang up and the
// bytes this process allocated meanwhile.
func streamHostile(c net.Conn, head string) (hungUp bool, allocated uint64) {
	chunk := bytes.Repeat([]byte("a"), 64<<10)
	ended := make(chan struct{})
	go func() {
		io.Copy(io.Discard, c) // a worker's hello, then nothing until the hang-up
		close(ended)
	}()
	// A receiver that stops reading without hanging up must fail the test,
	// not hang it.
	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Write([]byte(head))
	for sent := 0; sent < 64<<20; sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			break
		}
	}
	select {
	case <-ended:
		hungUp = true
	case <-time.After(10 * time.Second):
	}
	runtime.ReadMemStats(&after)
	return hungUp, after.TotalAlloc - before.TotalAlloc
}

func checkHostile(t *testing.T, c net.Conn, head string) {
	t.Helper()
	hungUp, allocated := streamHostile(c, head)
	t.Logf("hung up %v, %d bytes allocated", hungUp, allocated)
	if !hungUp {
		t.Error("the receiver never hung up")
	}
	if allocated >= 1<<20 {
		t.Errorf("the receiver allocated %d bytes while the peer streamed, want < 1 MiB", allocated)
	}
}

// TestHostilePeerAtMaster: a worker that sends a message with no size
// line, or one over maxFrame, is hung up on before the master holds more
// than its size line's buffer of it.
func TestHostilePeerAtMaster(t *testing.T) {
	for _, s := range hostileStreams {
		t.Run(s.name, func(t *testing.T) {
			m := newMaster(t)
			c, err := net.DialTimeout("tcp", m.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			checkHostile(t, c, s.head)
		})
	}
}

// TestHostilePeerAtWorker is the same stream from a master: the worker's
// receive path is bounded the same way.
func TestHostilePeerAtWorker(t *testing.T) {
	for _, s := range hostileStreams {
		t.Run(s.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				if c, err := lis.Accept(); err == nil {
					accepted <- c
				}
			}()
			newWorker(t, lis.Addr().String(), "victim", 1)
			c := <-accepted
			defer c.Close()
			checkHostile(t, c, s.head)
		})
	}
}

// malformedReport is a results frame's body whose one report does not
// decode: a duration is a string.
const malformedReport = `{"type":"results","results":[{"task_id":1,"worker":"w","report":` +
	`{"durations":["soon"]}}]}`

// TestMalformedReportBreaksConnection: a result whose report does not
// decode fails the whole results frame and breaks the connection. The
// master neither accepts the batch nor parks on the rest of the stream,
// and the peer's tasks go back to the queue.
func TestMalformedReportBreaksConnection(t *testing.T) {
	m := newLocalMaster()
	if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		m.serveWorker(newConn(server))
		server.Close() // as wire.Serve does once the handler returns
		close(done)
	}()
	go io.Copy(io.Discard, client)
	client.SetWriteDeadline(time.Now().Add(10 * time.Second))
	client.Write([]byte(frame(`{"type":"hello","name":"w","cores":1}`) + frame(malformedReport)))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the master still holds a connection whose report did not decode")
	}
	if s := m.Stats(); s.TasksDone != 0 || s.TasksWaiting != 1 || s.WorkersLost != 1 {
		t.Errorf("after the malformed report: %+v; want nothing done, the task queued, the worker lost", s)
	}
}

// TestMalformedArgsBreakConnection: a task whose argument record does not
// decode fails the whole task frame on the worker and breaks its
// connection, as a report that does not decode breaks the master's. The
// worker runs nothing, that task included, and sends nothing back.
func TestMalformedArgsBreakConnection(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := lis.Accept(); err == nil {
			accepted <- c
		}
	}()
	w := newWorker(t, lis.Addr().String(), "w", 1)
	c := <-accepted
	defer c.Close()
	p := &rawPeer{t: t, conn: c, r: bufio.NewReader(c)}
	if hello := p.recv(10 * time.Second); hello.Type != "hello" {
		t.Fatalf("first message %+v, want a hello", hello)
	}
	c.Write([]byte(frame(`{"type":"tasks","tasks":[{"id":1,"func":"echo","args":{"lfn":"x"}},` +
		`{"id":2,"func":"echo","args":{"work":"abc"}}]}`)))
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := p.r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a task frame whose arguments do not decode: read %d bytes, %v; want the worker to hang up", n, err)
	}
	if n := w.TasksRun(); n != 0 {
		t.Errorf("the worker ran %d tasks of a frame that did not decode", n)
	}
}

// TestWorstCaseResultsFitFrame: the largest message any peer sends is a
// batchMax-result batch whose every result carries a worst-case analysis
// report — every duration and every metric at its widest, a failed
// segment and an error string on the report and on the result. It
// encodes in under a sixteenth of maxFrame (57 KB; 212 KB while the
// report held six full segment records).
func TestWorstCaseResultsFitFrame(t *testing.T) {
	const long = 1.2345678901234567e+300
	errText := "xrootd: open /store/data/Run2015A/DoubleMuon/AOD/PromptReco-v1/000/250/985/00000/file0003.root: dial tcp 127.0.0.1:1094: connection refused"
	rep := &wrapper.Report{ExitCode: 60, Failed: wrapper.SegStageOut, Error: errText,
		Metrics: wrapper.Metrics{BytesFetched: long, BytesIn: long, BytesOut: long, CacheHits: long,
			CacheMisses: long, ConditionsBytes: long, Events: long}}
	for i := range rep.Durations {
		rep.Durations[i] = math.MinInt64
	}
	now := time.Now()
	out := message{Type: "results"}
	for i := 0; i < batchMax; i++ {
		out.Results = append(out.Results, &Result{
			TaskID: math.MaxInt64, Tag: "analysis", Worker: "pilot-0123456789", ExitCode: 60,
			Error: "exit code 60: stage_out", Report: rep,
			Stats: TaskStats{Times: TaskTimes{Started: now, Finished: now}, Exec: math.MaxInt64},
		})
	}
	n, err := newConn(&loopConn{}).SendFrame(&out)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d results in %d bytes, %d per result", batchMax, n, n/batchMax)
	if n >= maxFrame/16 {
		t.Errorf("a worst-case results batch is %d bytes, want under a sixteenth of maxFrame (%d)", n, maxFrame)
	}
}
