package replica

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/store"
	"lobster/internal/telemetry"
)

// RoleChange is one observed election transition, emitted as an "election"
// event on the local event log (monitor.ReplayLog recovers these) and
// delivered to the OnRole callback.
type RoleChange struct {
	Node   uint64 `json:"node"`
	Term   uint64 `json:"term"`
	Role   string `json:"role"`
	Leader uint64 `json:"leader,omitempty"`
}

// GroupConfig configures a Group.
type GroupConfig struct {
	// ID is this member's identity; Peers maps every member (including
	// ID) to its replica transport address.
	ID    uint64
	Peers map[uint64]string
	// Seed drives election jitter; the group derives a per-node stream
	// from Seed^ID so members sharing a config do not collide.
	Seed uint64
	// TickEvery is the wall-clock tick period (default 10ms). Election
	// timeouts are ElectionTicks..2×ElectionTicks ticks.
	TickEvery                     time.Duration
	ElectionTicks, HeartbeatTicks int
	// Dir, when non-empty, persists the node's hard state and log through
	// the store WAL so a restarted member rejoins with its vote and
	// entries intact.
	Dir string
	// Apply receives committed entries in log order, from the group loop
	// goroutine. It must not block for long: dispatch work, don't do it.
	Apply func(Entry)
	// OnRole observes election transitions (same goroutine as Apply).
	OnRole func(RoleChange)

	Registry *telemetry.Registry
	EventLog *telemetry.EventLog
	Fault    *faultinject.Injector
}

// Group runs one replica member on the real plane: a wall-clock ticker and
// a TCP transport drive the deterministic Node from a single loop
// goroutine, persisting hard state through the store WAL before any
// message leaves the machine.
type Group struct {
	cfg  GroupConfig
	node *Node
	tr   *Transport
	db   *store.DB

	inbox   chan Message
	propose chan proposeReq
	waitc   chan waitReq
	waiters []waitReq

	applied       uint64
	persistedLast uint64

	mu      sync.Mutex // guards role/term/leader mirrors for accessors
	role    Role
	term    uint64
	leader  uint64
	applyMu uint64 // applied mirror for accessors

	elections *telemetry.Counter

	closed  chan struct{}
	closeMu sync.Mutex
	wg      sync.WaitGroup
}

type proposeReq struct {
	data  []byte
	reply chan proposeResp
}

type proposeResp struct {
	index, term uint64
	err         error
}

type waitReq struct {
	index, term uint64
	reply       chan error
}

// ErrNotLeader reports a proposal sent to a non-leader member.
var ErrNotLeader = errors.New("replica: not leader")

// ErrSuperseded reports a proposal overwritten by a new leader before it
// committed: the entry is gone and the caller must resubmit.
var ErrSuperseded = errors.New("replica: proposal superseded by new leader")

// ErrClosed reports an operation on a closed group.
var ErrClosed = errors.New("replica: group closed")

// Store tables for the durable node state.
const (
	metaTable = "replica_meta"
	logTable  = "replica_log"
	metaKey   = "hard"
)

// StartGroup starts one member. The transport listens on
// cfg.Peers[cfg.ID]; pass "127.0.0.1:0" style addresses in tests and read
// back Addr.
func StartGroup(cfg GroupConfig) (*Group, error) {
	if cfg.ID == 0 || cfg.Peers[cfg.ID] == "" {
		return nil, fmt.Errorf("replica: member %d needs an address", cfg.ID)
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	ids := make([]uint64, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var hs HardState
	var entries []Entry
	var db *store.DB
	if cfg.Dir != "" {
		var err error
		db, err = store.Open(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("replica: opening state dir: %w", err)
		}
		if db.Has(metaTable, metaKey) {
			if err := db.GetJSON(metaTable, metaKey, &hs); err != nil {
				db.Close()
				return nil, err
			}
		}
		keys := db.Keys(logTable)
		sort.Strings(keys)
		for _, k := range keys {
			var e Entry
			if err := db.GetJSON(logTable, k, &e); err != nil {
				db.Close()
				return nil, err
			}
			entries = append(entries, e)
		}
	}

	g := &Group{
		cfg: cfg,
		node: NewNode(Config{
			ID: cfg.ID, Peers: ids, Seed: cfg.Seed ^ cfg.ID,
			ElectionTicks: cfg.ElectionTicks, HeartbeatTicks: cfg.HeartbeatTicks,
		}, hs, entries),
		db:            db,
		inbox:         make(chan Message, 256),
		propose:       make(chan proposeReq),
		waitc:         make(chan waitReq, 16),
		closed:        make(chan struct{}),
		persistedLast: uint64(len(entries)),
	}
	g.term = hs.Term

	tr, err := NewTransport(cfg.ID, cfg.Peers, cfg.Fault, g.enqueue)
	if err != nil {
		if db != nil {
			db.Close()
		}
		return nil, err
	}
	g.tr = tr
	g.instrument()
	g.wg.Add(1)
	go g.loop()
	return g, nil
}

// enqueue funnels transport deliveries into the loop; a full inbox drops
// (ticks retransmit).
func (g *Group) enqueue(m Message) {
	select {
	case g.inbox <- m:
	case <-g.closed:
	default:
	}
}

// Addr returns the member's replica transport address.
func (g *Group) Addr() string { return g.tr.Addr() }

// instrument registers the member's gauges and counters. Series are
// labelled by node so a shared fleet registry holds every member.
func (g *Group) instrument() {
	reg := g.cfg.Registry
	if reg == nil {
		return
	}
	g.elections = reg.CounterVec("lobster_replica_elections_total",
		"Elections started (transitions to candidate).", "node").
		With(fmt.Sprint(g.cfg.ID))
	role := reg.GaugeFuncVec("lobster_replica_role",
		"Member role: 0 follower, 1 candidate, 2 leader.", "node")
	role.With(func() float64 { return float64(g.Role()) }, fmt.Sprint(g.cfg.ID))
	term := reg.GaugeFuncVec("lobster_replica_term",
		"Member's current election term.", "node")
	term.With(func() float64 { return float64(g.Term()) }, fmt.Sprint(g.cfg.ID))
	commit := reg.GaugeFuncVec("lobster_replica_applied_index",
		"Committed entries applied by this member.", "node")
	commit.With(func() float64 { return float64(g.Applied()) }, fmt.Sprint(g.cfg.ID))
	g.tr.Instrument(reg)
}

// Role returns the member's current role.
func (g *Group) Role() Role {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role
}

// Term returns the member's current term.
func (g *Group) Term() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.term
}

// LeaderID returns the leader known for the current term (0 if unknown).
func (g *Group) LeaderID() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// Applied returns the number of committed entries applied so far.
func (g *Group) Applied() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.applyMu
}

// Propose submits data for replication, blocking until the entry commits
// (success), is superseded by another leader (ErrSuperseded), or the
// timeout passes. ErrNotLeader returns immediately on a non-leader.
func (g *Group) Propose(data []byte, timeout time.Duration) (uint64, error) {
	req := proposeReq{data: data, reply: make(chan proposeResp, 1)}
	select {
	case g.propose <- req:
	case <-g.closed:
		return 0, ErrClosed
	}
	var resp proposeResp
	select {
	case resp = <-req.reply:
	case <-g.closed:
		return 0, ErrClosed
	}
	if resp.err != nil {
		return 0, resp.err
	}
	if err := g.WaitCommitted(resp.index, resp.term, timeout); err != nil {
		return resp.index, err
	}
	return resp.index, nil
}

// WaitCommitted blocks until the entry at index commits with term (nil),
// commits with a different term (ErrSuperseded), or the timeout passes.
func (g *Group) WaitCommitted(index, term uint64, timeout time.Duration) error {
	req := waitReq{index: index, term: term, reply: make(chan error, 1)}
	select {
	case g.waitc <- req:
	case <-g.closed:
		return ErrClosed
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case err := <-req.reply:
		return err
	case <-timer:
		return fmt.Errorf("replica: commit wait for %d timed out", index)
	case <-g.closed:
		return ErrClosed
	}
}

// loop is the single goroutine that owns the node.
func (g *Group) loop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.TickEvery)
	defer ticker.Stop()
	for {
		var msgs []Message
		select {
		case <-g.closed:
			return
		case <-ticker.C:
			msgs = g.node.Tick()
		case m := <-g.inbox:
			msgs = g.node.Step(m)
		case req := <-g.propose:
			index, out, ok := g.node.Propose(req.data)
			if !ok {
				req.reply <- proposeResp{err: ErrNotLeader}
			} else {
				req.reply <- proposeResp{index: index, term: g.node.Term()}
			}
			msgs = out
		case req := <-g.waitc:
			g.waiters = append(g.waiters, req)
		}
		g.afterStep(msgs)
	}
}

// afterStep is the post-operation pipeline: persist, send, apply, observe.
// Persist-before-send is the protocol's safety requirement; apply and the
// role observation run after so callbacks see a durable state.
func (g *Group) afterStep(msgs []Message) {
	if hs, logFrom, changed := g.node.TakeDirty(); changed && g.db != nil {
		g.persist(hs, logFrom)
	}
	if len(msgs) > 0 {
		g.tr.Send(msgs)
	}
	for _, e := range g.node.TakeCommitted() {
		g.applied = e.Index
		if g.cfg.Apply != nil {
			g.cfg.Apply(e)
		}
	}
	g.mu.Lock()
	prevRole, prevTerm, prevLeader := g.role, g.term, g.leader
	g.role, g.term, g.leader = g.node.Role(), g.node.Term(), g.node.Leader()
	g.applyMu = g.applied
	g.mu.Unlock()
	// Leader discovery counts as a transition: a follower that grants a
	// vote learns the winner only from the first append, with role and
	// term unchanged — observers (redirects, the event log) need that.
	if prevRole != g.node.Role() || prevTerm != g.node.Term() || prevLeader != g.node.Leader() {
		rc := RoleChange{
			Node: g.cfg.ID, Term: g.node.Term(),
			Role: g.node.Role().String(), Leader: g.node.Leader(),
		}
		if g.node.Role() == Candidate && (prevRole != Candidate || prevTerm != g.node.Term()) {
			g.elections.Inc()
		}
		g.cfg.EventLog.Emit("election", rc)
		if g.cfg.OnRole != nil {
			g.cfg.OnRole(rc)
		}
	}
	g.settleWaiters()
}

// settleWaiters resolves commit waits that the latest step decided.
func (g *Group) settleWaiters() {
	if len(g.waiters) == 0 {
		return
	}
	kept := g.waiters[:0]
	for _, w := range g.waiters {
		switch {
		case g.node.Commit() >= w.index:
			if g.node.TermAt(w.index) == w.term {
				w.reply <- nil
			} else {
				w.reply <- ErrSuperseded
			}
		case g.node.LastIndex() >= w.index && g.node.TermAt(w.index) != w.term:
			w.reply <- ErrSuperseded // overwritten before committing
		case g.node.LastIndex() < w.index:
			w.reply <- ErrSuperseded // truncated away entirely
		default:
			kept = append(kept, w)
		}
	}
	g.waiters = kept
}

// persist writes hard state and changed log entries through the store WAL.
func (g *Group) persist(hs HardState, logFrom uint64) {
	g.db.PutJSON(metaTable, metaKey, hs)
	last := g.node.LastIndex()
	for idx := g.persistedLast; idx > last; idx-- {
		g.db.Delete(logTable, logKey(idx))
	}
	if logFrom > 0 {
		for _, e := range g.node.Entries(logFrom) {
			g.db.PutJSON(logTable, logKey(e.Index), e)
		}
	}
	g.persistedLast = last
}

func logKey(idx uint64) string { return fmt.Sprintf("%016x", idx) }

// Close stops the member: loop, transport, and state store.
func (g *Group) Close() error {
	g.closeMu.Lock()
	select {
	case <-g.closed:
		g.closeMu.Unlock()
		return nil
	default:
		close(g.closed)
	}
	g.closeMu.Unlock()
	err := g.tr.Close()
	g.wg.Wait()
	if g.db != nil {
		if cerr := g.db.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
