package wq

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// TestHAStandbyLogTornPrefixReplay is the failover crash-recovery
// property: a standby's event log is the replicated applied stream, so
// replaying ANY byte prefix of it — the shape a torn replication tail or
// a crash mid-append leaves — must succeed and rebuild a clean prefix of
// the leader's task DB: the records whose lines fully fit, in commit
// order, never a half-parsed or reordered record, with the leadership
// history replaying monotonically beside them.
func TestHAStandbyLogTornPrefixReplay(t *testing.T) {
	repAddrs := haReserve(t, 3)
	peers := map[uint64]string{1: repAddrs[0], 2: repAddrs[1], 3: repAddrs[2]}
	masters := make([]*HAMaster, 3)
	logs := make([]*bytes.Buffer, 3)
	evlogs := make([]*telemetry.EventLog, 3)
	wqAddrs := make(map[uint64]string)
	for i := 0; i < 3; i++ {
		logs[i] = &bytes.Buffer{}
		evlogs[i] = telemetry.NewEventLog(logs[i], nil)
		h, err := StartHAMaster(HAMasterConfig{
			ID: uint64(i + 1), Peers: peers, Addr: "127.0.0.1:0",
			WQAddrs: wqAddrs, Seed: 7,
			TickEvery: 2 * time.Millisecond, ElectionTicks: 10,
			EventLog: evlogs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		masters[i] = h
	}
	addrs := make([]string, 3)
	for i, h := range masters {
		addrs[i] = h.Addr()
		wqAddrs[uint64(i+1)] = h.Addr()
	}

	w := StartHAWorker(HAWorkerConfig{
		Addrs: addrs, Name: "w0", Cores: 2, Dir: t.TempDir(), Reg: testRegistry(),
	})

	ldr := waitHALeader(t, masters)
	const n = 12
	for i := 0; i < n; i++ {
		haSubmit(t, masters, &Task{
			Func: "echo", Tag: fmt.Sprintf("job-%d", i),
			Args:    map[string]string{"text": fmt.Sprintf("payload-%d", i)},
			Outputs: []string{"out.txt"},
		})
	}
	var standby *HAMaster
	for _, h := range masters {
		if !h.WaitDone(n, 15*time.Second) {
			t.Fatalf("member %d applied %d/%d outcomes", h.ID(), h.DoneCount(), n)
		}
		// No wait in between: an outcome is recorded before it is published.
		if got := h.Monitor().Len(); got != n {
			t.Fatalf("member %d: WaitDone(%d) returned with %d monitor records", h.ID(), n, got)
		}
		if h != ldr {
			standby = h
		}
	}
	leaderDB := ldr.Monitor().Records()
	standbyIdx := int(standby.ID() - 1)

	// Quiesce before reading the buffers: no appends race the sweep.
	w.Close()
	for _, h := range masters {
		h.Close()
	}
	for _, l := range evlogs {
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	full := logs[standbyIdx].Bytes()
	if len(full) == 0 {
		t.Fatal("standby event log is empty")
	}

	// The full log first: the standby's stream reconstructs the leader's
	// task DB exactly, and carries the election history.
	{
		m := monitor.New()
		got, err := m.ReplayLog(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("full standby log replayed %d records, want %d", got, n)
		}
		if !reflect.DeepEqual(m.Records(), leaderDB) {
			t.Fatal("full standby log does not rebuild the leader's task DB")
		}
		if len(m.Elections()) == 0 {
			t.Fatal("standby log carries no election events")
		}
	}

	// Every byte prefix: never an error, monotone in the cut point, and
	// always a clean prefix of the leader's DB.
	prevTasks, prevElections := 0, 0
	for cut := 0; cut <= len(full); cut++ {
		m := monitor.New()
		nt, err := m.ReplayLog(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		ne := len(m.Elections())
		if nt < prevTasks || ne < prevElections {
			t.Fatalf("prefix of %d bytes lost ground: tasks %d<%d or elections %d<%d",
				cut, nt, prevTasks, ne, prevElections)
		}
		prevTasks, prevElections = nt, ne
		if nt > 0 && !reflect.DeepEqual(m.Records(), leaderDB[:nt]) {
			t.Fatalf("prefix of %d bytes: replayed records are not a prefix of the leader's DB", cut)
		}
	}
	if prevTasks != n {
		t.Fatalf("final prefix replayed %d records, want %d", prevTasks, n)
	}
}
