package wq

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/monitor"
	"lobster/internal/replica"
	"lobster/internal/telemetry"
)

// HA control plane: a Master wrapped in a replica.Group so the task log —
// not the process — is the source of truth. Every submission and every
// terminal completion is an entry in the replicated log, encoded as a
// telemetry.Event JSON line ("ha_submit" carries the Task, "task" carries
// the monitor.TaskRecord with HA fields piggybacked in the same object),
// so a standby's applied stream doubles as a structured event log that
// monitor.ReplayLog consumes directly.
//
// The leader dispatches from the apply path (commit-then-dispatch): a task
// reaches a worker only after its submission is majority-durable, and a
// completion is acknowledged only after its done-record is. On leader
// death the survivors elect, finish applying the committed suffix, and the
// winner re-dispatches everything still pending — a committed task is
// never lost, and the apply-side dedupe keeps completion exactly-once even
// when an old leader's in-flight done-record commits after a re-dispatch.
//
// Takeover is gated on the term barrier: becoming leader auto-appends an
// empty entry of the new term, and only once that entry applies locally is
// the committed prefix known to be fully replayed — dispatching earlier
// could re-run a task whose done-record sits later in the suffix.

// HAMasterConfig configures one replicated-control-plane member.
type HAMasterConfig struct {
	// ID and Peers define the replication mesh (replica transport
	// addresses). Addr is this member's worker-facing wq listen address.
	ID    uint64
	Peers map[uint64]string
	Addr  string
	// WQAddrs optionally maps member IDs to their worker-facing addresses
	// so redirects can point kicked workers straight at the new leader.
	WQAddrs map[uint64]string

	Seed          uint64
	TickEvery     time.Duration
	ElectionTicks int
	// Dir, when non-empty, persists the replica state (vote, term, log).
	Dir string

	Registry *telemetry.Registry
	// EventLog, when non-nil, receives the applied entry stream plus the
	// group's election events — the member's replayable local history.
	EventLog *telemetry.EventLog
	Fault    *faultinject.Injector
}

// HAResult is one replicated terminal task outcome.
type HAResult struct {
	HAID      uint64
	Tag       string
	Worker    string
	ExitCode  int
	Error     string
	Permanent bool
	Requeues  int
	Outputs   []FileSpec
}

// Failed reports whether the outcome is a failure.
func (r *HAResult) Failed() bool { return r.ExitCode != 0 }

// haDoneEntry is the wire form of a terminal completion: a TaskRecord
// flattened for monitor.ReplayLog, with the HA bookkeeping riding along as
// extra keys the record unmarshal ignores.
type haDoneEntry struct {
	monitor.TaskRecord
	HAID      uint64     `json:"ha_id"`
	HATag     string     `json:"ha_tag,omitempty"`
	HAError   string     `json:"ha_error,omitempty"`
	Permanent bool       `json:"ha_permanent,omitempty"`
	Outputs   []FileSpec `json:"ha_outputs,omitempty"`
}

// HAMaster is one member of a replicated control plane.
type HAMaster struct {
	cfg   HAMasterConfig
	inner *Master
	group *replica.Group
	mon   *monitor.Monitor
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// pending holds committed submissions with no committed done-record
	// yet; done and results hold the terminal outcomes; tags dedupes
	// client resubmissions of the same tag after an ambiguous failure.
	pending   map[uint64]*Task
	done      map[uint64]*HAResult
	results   []*HAResult
	tags      map[string]uint64
	innerToHA map[int64]uint64
	ready     bool   // leader with the term barrier applied
	leadTerm  uint64 // term of our leadership, 0 when not leader

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// StartHAMaster starts one member. All members start gated (standby);
// whichever wins the election opens its worker gate and dispatches.
func StartHAMaster(cfg HAMasterConfig) (*HAMaster, error) {
	inner, err := NewMaster(cfg.Addr)
	if err != nil {
		return nil, err
	}
	inner.SetAccepting(false)
	inner.Fault(cfg.Fault)
	h := &HAMaster{
		cfg:       cfg,
		inner:     inner,
		mon:       monitor.New(),
		start:     time.Now(),
		pending:   make(map[uint64]*Task),
		done:      make(map[uint64]*HAResult),
		tags:      make(map[string]uint64),
		innerToHA: make(map[int64]uint64),
		closed:    make(chan struct{}),
	}
	h.cond = sync.NewCond(&h.mu)
	group, err := replica.StartGroup(replica.GroupConfig{
		ID: cfg.ID, Peers: cfg.Peers, Seed: cfg.Seed,
		TickEvery: cfg.TickEvery, ElectionTicks: cfg.ElectionTicks,
		Dir:      cfg.Dir,
		Apply:    h.applyEntry,
		OnRole:   h.onRole,
		Registry: cfg.Registry,
		EventLog: cfg.EventLog,
		Fault:    cfg.Fault,
	})
	if err != nil {
		inner.Close()
		return nil, err
	}
	h.group = group
	h.wg.Add(1)
	go h.collector()
	return h, nil
}

// now returns seconds since the member started (the monitor's run origin).
func (h *HAMaster) now() float64 { return time.Since(h.start).Seconds() }

// rel converts an absolute task timestamp to run-origin seconds.
func (h *HAMaster) rel(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return t.Sub(h.start).Seconds()
}

// Addr returns the member's worker-facing address.
func (h *HAMaster) Addr() string { return h.inner.Addr() }

// ReplicaAddr returns the member's replication transport address.
func (h *HAMaster) ReplicaAddr() string { return h.group.Addr() }

// ID returns the member's identity.
func (h *HAMaster) ID() uint64 { return h.cfg.ID }

// IsLeader reports whether the member currently leads.
func (h *HAMaster) IsLeader() bool { return h.group.Role() == replica.Leader }

// Ready reports whether the member leads AND has applied its term barrier
// — the instant it owns dispatch.
func (h *HAMaster) Ready() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ready
}

// Term returns the member's current election term.
func (h *HAMaster) Term() uint64 { return h.group.Term() }

// LeaderID returns the member's view of the current leader (0 unknown).
func (h *HAMaster) LeaderID() uint64 { return h.group.LeaderID() }

// Monitor returns the member's warm task DB, rebuilt continuously from the
// applied done-records — on a standby it is the failover-ready replica of
// the leader's task history.
func (h *HAMaster) Monitor() *monitor.Monitor { return h.mon }

// Stats returns the inner dispatch master's counters.
func (h *HAMaster) Stats() MasterStats { return h.inner.Stats() }

// Submit replicates a task submission and returns its HA ID (the log
// index) once it is majority-durable. Only the leader accepts;
// replica.ErrNotLeader tells the client to try another member. Tasks with
// a Tag are idempotent: resubmitting a tag that already committed returns
// the original ID, so a client may safely retry an ambiguous failure.
func (h *HAMaster) Submit(t *Task, timeout time.Duration) (uint64, error) {
	if t.Func == "" {
		return 0, errors.New("wq: task needs a Func")
	}
	if t.MaxRetries <= 0 {
		t.MaxRetries = 5
	}
	if t.Tag != "" {
		h.mu.Lock()
		id, dup := h.tags[t.Tag]
		h.mu.Unlock()
		if dup {
			return id, nil
		}
	}
	data, err := json.Marshal(t)
	if err != nil {
		return 0, err
	}
	line, err := json.Marshal(telemetry.Event{Time: h.now(), Type: "ha_submit", Data: data})
	if err != nil {
		return 0, err
	}
	return h.group.Propose(line, timeout)
}

// DoneCount returns the number of replicated terminal outcomes.
func (h *HAMaster) DoneCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.done)
}

// PendingCount returns committed submissions still awaiting a done-record.
func (h *HAMaster) PendingCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// Results returns a snapshot of the terminal outcomes in apply order.
func (h *HAMaster) Results() []*HAResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*HAResult, len(h.results))
	copy(out, h.results)
	return out
}

// WaitDone blocks until n outcomes have replicated or the timeout passes.
func (h *HAMaster) WaitDone(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer timer.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.done) < n {
		if !time.Now().Before(deadline) {
			return false
		}
		select {
		case <-h.closed:
			return false
		default:
		}
		h.cond.Wait()
	}
	return true
}

// onRole reacts to election transitions (group loop goroutine — must not
// block). A new leader opens the worker gate and waits for its term
// barrier; a deposed or standby member gates itself, forgets its dispatch
// bookkeeping, and kicks its workers toward the new leader.
func (h *HAMaster) onRole(rc replica.RoleChange) {
	if rc.Role == replica.Leader.String() {
		h.mu.Lock()
		h.leadTerm = rc.Term
		h.ready = false
		h.mu.Unlock()
		h.inner.SetRedirect("")
		h.inner.SetAccepting(true)
		return
	}
	h.mu.Lock()
	wasLeader := h.leadTerm != 0
	h.leadTerm = 0
	h.ready = false
	h.innerToHA = make(map[int64]uint64)
	h.mu.Unlock()
	h.inner.SetAccepting(false)
	if addr := h.cfg.WQAddrs[rc.Leader]; addr != "" {
		h.inner.SetRedirect(addr)
	}
	if wasLeader {
		// Conn writes can block; never from the group loop.
		go h.inner.KickWorkers()
	}
}

// applyEntry consumes one committed entry (group loop goroutine, log
// order). This is the only place HA state changes, on every member alike —
// leader and standby stay in lockstep by construction.
func (h *HAMaster) applyEntry(e replica.Entry) {
	if len(e.Data) == 0 {
		// Term barrier. If it carries our leadership term, the committed
		// prefix is fully applied: take over dispatch.
		h.mu.Lock()
		if h.leadTerm != 0 && e.Term == h.leadTerm && !h.ready {
			h.ready = true
			backlog := make(map[uint64]*Task, len(h.pending))
			for id, t := range h.pending {
				backlog[id] = t
			}
			h.mu.Unlock()
			for id, t := range backlog {
				h.dispatch(id, t)
			}
			return
		}
		h.mu.Unlock()
		return
	}
	var ev telemetry.Event
	if json.Unmarshal(e.Data, &ev) != nil {
		return
	}
	h.cfg.EventLog.Emit(ev.Type, ev.Data)
	switch ev.Type {
	case "ha_submit":
		var t Task
		if json.Unmarshal(ev.Data, &t) != nil {
			return
		}
		h.mu.Lock()
		if t.Tag != "" {
			if _, dup := h.tags[t.Tag]; dup {
				h.mu.Unlock()
				return // client retry of an already-committed submission
			}
			h.tags[t.Tag] = e.Index
		}
		if _, isDone := h.done[e.Index]; !isDone {
			h.pending[e.Index] = &t
		}
		ready := h.ready
		h.mu.Unlock()
		if ready {
			h.dispatch(e.Index, &t)
		}
	case "task":
		var d haDoneEntry
		if json.Unmarshal(ev.Data, &d) != nil {
			return
		}
		h.mu.Lock()
		if _, dup := h.done[d.HAID]; dup {
			h.mu.Unlock()
			return // an old leader's in-flight done-record after re-dispatch
		}
		delete(h.pending, d.HAID)
		// Record before publishing: WaitDone(n) returning means the
		// monitor already holds all n records.
		h.mon.Add(d.TaskRecord)
		res := &HAResult{
			HAID: d.HAID, Tag: d.HATag, Worker: d.TaskRecord.Worker,
			ExitCode: d.TaskRecord.ExitCode, Error: d.HAError,
			Permanent: d.Permanent, Requeues: d.TaskRecord.Requeues,
			Outputs: d.Outputs,
		}
		h.done[d.HAID] = res
		h.results = append(h.results, res)
		h.cond.Broadcast()
		h.mu.Unlock()
	}
}

// dispatch hands a committed task to the inner master. The replicated copy
// stays pristine; the inner master assigns its own transient ID, recorded
// for the collector to map results back. The map write happens under the
// same lock as the Submit so a lightning-fast result cannot outrun it.
func (h *HAMaster) dispatch(haID uint64, t *Task) {
	cp := *t
	h.mu.Lock()
	innerID, err := h.inner.Submit(&cp)
	if err == nil {
		h.innerToHA[innerID] = haID
	}
	h.mu.Unlock()
}

// collector drains the inner master's terminal results and replicates each
// as a done-record. A proposal that fails (deposed mid-flight) is simply
// dropped: the mapping died with the leadership, and the next leader
// re-dispatches the task.
func (h *HAMaster) collector() {
	defer h.wg.Done()
	for {
		select {
		case <-h.closed:
			return
		default:
		}
		r, ok := h.inner.WaitResult(200 * time.Millisecond)
		if !ok {
			continue
		}
		h.mu.Lock()
		haID, mapped := h.innerToHA[r.TaskID]
		if mapped {
			delete(h.innerToHA, r.TaskID)
		}
		var tag, kind string
		if t := h.pending[haID]; mapped && t != nil {
			tag, kind = t.Tag, t.Func
		}
		h.mu.Unlock()
		if !mapped {
			continue // stale result from a previous leadership
		}
		d := haDoneEntry{
			TaskRecord: monitor.TaskRecord{
				TaskID: int64(haID), Kind: kind, Worker: r.Worker,
				Submit:   h.rel(r.Stats.Times.Submitted),
				Dispatch: h.rel(r.Stats.Times.Dispatched),
				Start:    h.rel(r.Stats.Times.Started),
				Finish:   h.rel(r.Stats.Times.Finished),
				Return:   h.now(),
				ExitCode: r.ExitCode, Requeues: r.Requeues,
				StageIn:  r.Stats.StageIn.Seconds(),
				StageOut: r.Stats.StageOut.Seconds(),
				CPUTime:  r.Stats.Exec.Seconds(),
			},
			HAID: haID, HATag: tag, HAError: r.Error,
			Permanent: r.Permanent, Outputs: r.Outputs,
		}
		payload, err := json.Marshal(d)
		if err != nil {
			continue
		}
		line, err := json.Marshal(telemetry.Event{Time: h.now(), Type: "task", Data: payload})
		if err != nil {
			continue
		}
		h.group.Propose(line, 10*time.Second)
	}
}

// Close stops the member: replication first (so it stops winning
// elections), then the worker-facing master.
func (h *HAMaster) Close() error {
	var err error
	h.closeOnce.Do(func() {
		close(h.closed)
		err = h.group.Close()
		if cerr := h.inner.Close(); err == nil {
			err = cerr
		}
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
		h.wg.Wait()
	})
	return err
}

// Kill is the chaos-plane death: identical to Close (which is already
// abrupt — no draining, connections severed), named for fault plans.
func (h *HAMaster) Kill() { h.Close() }
