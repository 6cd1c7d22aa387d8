// Package replica is Lobster's control-plane replication layer: a small,
// deterministic, stdlib-only leader-election and log-replication protocol
// (raft-shaped: terms, votes, majority commit) that streams the master's
// event log to standby masters. Standbys tail the committed log and keep a
// warm task DB via monitor.ReplayLog; when the leader dies they elect a
// successor, replay the committed suffix, and take over dispatch with zero
// committed-entry loss.
//
// The protocol core (Node) is a pure, tick-driven state machine: it never
// reads a clock, never spawns a goroutine, and draws election jitter from a
// seeded splitmix64 stream — so the identical code runs on the real plane
// (Group drives it from a wall-clock ticker over TCP) and on the simulation
// plane (RunSim drives it from the discrete-event kernel) bit-for-bit
// deterministically from a seed. That determinism is what makes the
// election model checker and the golden failover transcripts possible.
package replica

import (
	"fmt"

	"lobster/internal/stats"
)

// Role is a node's current protocol role.
type Role uint8

// Protocol roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String returns the lower-case role name used in events and transcripts.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Entry is one replicated log record. Data is opaque to the protocol; the
// HA master stores one JSONL event-log line per entry so a standby's
// committed log is directly replayable by monitor.ReplayLog.
type Entry struct {
	Index uint64 `json:"index"`
	Term  uint64 `json:"term"`
	Data  []byte `json:"data,omitempty"`
}

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// MsgVote is a candidate requesting a vote. LogIndex/LogTerm carry the
	// candidate's last entry so voters enforce the up-to-date rule.
	MsgVote MsgType = iota + 1
	// MsgVoteResp answers MsgVote; Reject means the vote was withheld.
	MsgVoteResp
	// MsgApp replicates entries (and doubles as the heartbeat when empty).
	// LogIndex/LogTerm identify the entry preceding Entries; Commit is the
	// leader's commit index.
	MsgApp
	// MsgAppResp answers MsgApp. On success LogIndex is the follower's new
	// match index; on rejection it is the follower's last index, the
	// leader's backtracking hint.
	MsgAppResp
)

// String returns the message-type name used in transcripts.
func (t MsgType) String() string {
	switch t {
	case MsgVote:
		return "vote"
	case MsgVoteResp:
		return "vote_resp"
	case MsgApp:
		return "app"
	case MsgAppResp:
		return "app_resp"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Message is one protocol message between peers.
type Message struct {
	Type     MsgType
	From, To uint64
	Term     uint64
	LogIndex uint64
	LogTerm  uint64
	Commit   uint64
	Reject   bool
	Entries  []Entry
}

// Config configures a Node.
type Config struct {
	// ID is this node's member identity (non-zero).
	ID uint64
	// Peers lists every cluster member, including ID. Order fixes the
	// deterministic broadcast order; callers should pass the same slice on
	// every node (sorted ascending by convention).
	Peers []uint64
	// Seed feeds the election-jitter stream. Different nodes should use
	// different seeds (Group derives seed^ID) or every timeout collides.
	Seed uint64
	// ElectionTicks is the base election timeout in ticks (default 10);
	// the effective timeout adds a deterministic jitter in [0, ElectionTicks).
	ElectionTicks int
	// HeartbeatTicks is the leader's heartbeat interval in ticks (default 1).
	HeartbeatTicks int
	// MaxBatch bounds entries per MsgApp (default 64, matching the wq
	// dispatch batch width).
	MaxBatch int
}

// Node is the deterministic protocol state machine. It is not safe for
// concurrent use: the Group (real plane) and RunSim (sim plane) each drive
// it from a single goroutine. Every method returns the messages to send;
// the caller owns transport, timing, and persistence.
type Node struct {
	cfg Config

	role   Role
	term   uint64
	vote   uint64 // candidate voted for in term; 0 = none
	leader uint64 // leader known this term; 0 = unknown

	// log[i] has Index i+1. The whole log stays in memory (entries are
	// event-log lines; a run's control history is small next to its data).
	log    []Entry
	commit uint64
	taken  uint64 // entries handed out via TakeCommitted

	elapsed int // ticks since the last election-timer reset or heartbeat
	timeout int // current jittered election timeout, in ticks

	votes map[uint64]bool   // votes granted to this candidate
	next  map[uint64]uint64 // per-peer next index to send (leader)
	match map[uint64]uint64 // per-peer highest replicated index (leader)

	// dirty marks unpersisted hard state (term/vote); dirtyFrom is the
	// lowest log index changed since the last persist (0 = none). The
	// Group writes both to the store WAL before releasing messages to the
	// wire — the raft persistence barrier.
	dirty     bool
	dirtyFrom uint64
}

// HardState is the durable part of a node's state: what must survive a
// restart for safety (a node that forgets its vote can vote twice in a
// term; a node that forgets entries can un-commit them).
type HardState struct {
	Term uint64 `json:"term"`
	Vote uint64 `json:"vote"`
}

// NewNode builds a node. Restored hard state and log entries (from the
// store WAL) may be passed to resume a restarted member; pass the zero
// HardState and nil entries for a fresh node.
func NewNode(cfg Config, hs HardState, entries []Entry) *Node {
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 10
	}
	if cfg.HeartbeatTicks <= 0 {
		cfg.HeartbeatTicks = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	n := &Node{
		cfg:  cfg,
		term: hs.Term,
		vote: hs.Vote,
		log:  append([]Entry(nil), entries...),
	}
	n.resetTimer()
	return n
}

// quorum is the majority size for the configured membership.
func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

// resetTimer restarts the election countdown with fresh jitter. Jitter is
// keyed by (seed, id, term) so every (node, term) pair redraws — the
// split-vote escape hatch — yet identical runs redraw identically.
func (n *Node) resetTimer() {
	n.elapsed = 0
	h := stats.SplitMix64(n.cfg.Seed ^ n.cfg.ID*0x9E3779B97F4A7C15 ^ n.term*0xBF58476D1CE4E5B9)
	n.timeout = n.cfg.ElectionTicks + int(h%uint64(n.cfg.ElectionTicks))
}

// Role returns the node's current role.
func (n *Node) Role() Role { return n.role }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the leader known for the current term (0 if unknown).
func (n *Node) Leader() uint64 { return n.leader }

// Commit returns the commit index.
func (n *Node) Commit() uint64 { return n.commit }

// LastIndex returns the index of the last log entry.
func (n *Node) LastIndex() uint64 { return uint64(len(n.log)) }

// HardState returns the node's durable state for persistence.
func (n *Node) HardState() HardState { return HardState{Term: n.term, Vote: n.vote} }

// Entries returns the log suffix starting at index lo (1-based, inclusive).
// The returned slice aliases the node's log; callers must not mutate it.
func (n *Node) Entries(lo uint64) []Entry {
	if lo < 1 {
		lo = 1
	}
	if lo > uint64(len(n.log)) {
		return nil
	}
	return n.log[lo-1:]
}

// TermAt returns the term of the entry at index (0 for index 0 or out of
// range).
func (n *Node) TermAt(index uint64) uint64 {
	if index == 0 || index > uint64(len(n.log)) {
		return 0
	}
	return n.log[index-1].Term
}

// TakeDirty returns and clears the persistence obligations accumulated
// since the last call: the hard state (meaningful when changed is true)
// and the lowest changed log index (0 when no entries changed). The Group
// writes these to the store WAL before sending any message produced by
// the same step — the raft persistence barrier.
func (n *Node) TakeDirty() (hs HardState, logFrom uint64, changed bool) {
	if !n.dirty && n.dirtyFrom == 0 {
		return HardState{}, 0, false
	}
	hs, logFrom = n.HardState(), n.dirtyFrom
	n.dirty, n.dirtyFrom = false, 0
	return hs, logFrom, true
}

// markLog records that log entries from index on changed.
func (n *Node) markLog(from uint64) {
	if n.dirtyFrom == 0 || from < n.dirtyFrom {
		n.dirtyFrom = from
	}
}

// TakeCommitted returns the newly committed entries since the last call,
// in log order. The HA master applies them to its task state; a standby
// additionally tails them into its local event log.
func (n *Node) TakeCommitted() []Entry {
	if n.taken >= n.commit {
		return nil
	}
	out := n.log[n.taken:n.commit]
	n.taken = n.commit
	return out
}

// lastTerm returns the term of the last log entry.
func (n *Node) lastTerm() uint64 { return n.TermAt(uint64(len(n.log))) }

// Tick advances the node by one logical tick and returns messages to send.
func (n *Node) Tick() []Message {
	n.elapsed++
	if n.role == Leader {
		if n.elapsed >= n.cfg.HeartbeatTicks {
			n.elapsed = 0
			return n.broadcastApp()
		}
		return nil
	}
	if n.elapsed >= n.timeout {
		return n.campaign()
	}
	return nil
}

// campaign starts an election for the next term.
func (n *Node) campaign() []Message {
	n.term++
	n.role = Candidate
	n.vote = n.cfg.ID
	n.leader = 0
	n.dirty = true
	n.votes = map[uint64]bool{n.cfg.ID: true}
	n.resetTimer()
	if len(n.votes) >= n.quorum() { // single-member cluster
		return n.becomeLeader()
	}
	msgs := make([]Message, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		msgs = append(msgs, Message{
			Type: MsgVote, From: n.cfg.ID, To: p, Term: n.term,
			LogIndex: n.LastIndex(), LogTerm: n.lastTerm(),
		})
	}
	return msgs
}

// becomeLeader transitions to leadership and appends the term-barrier
// entry: an empty record of the new term whose commit both (a) advances
// the commit index over the previous leader's tail (the current-term
// commit restriction) and (b) tells the HA master that the committed
// suffix is fully applied and takeover may dispatch.
func (n *Node) becomeLeader() []Message {
	n.role = Leader
	n.leader = n.cfg.ID
	n.elapsed = 0
	n.next = make(map[uint64]uint64, len(n.cfg.Peers))
	n.match = make(map[uint64]uint64, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		n.next[p] = n.LastIndex() + 1
		n.match[p] = 0
	}
	n.log = append(n.log, Entry{Index: n.LastIndex() + 1, Term: n.term})
	n.dirty = true
	n.markLog(n.LastIndex())
	n.match[n.cfg.ID] = n.LastIndex()
	n.maybeCommit()
	return n.broadcastApp()
}

// Propose appends data to the log if this node is leader, returning the
// assigned index and the replication messages. ok is false on a
// non-leader (the caller redirects to the known leader).
func (n *Node) Propose(data []byte) (index uint64, msgs []Message, ok bool) {
	if n.role != Leader {
		return 0, nil, false
	}
	n.log = append(n.log, Entry{Index: n.LastIndex() + 1, Term: n.term, Data: data})
	n.dirty = true
	n.markLog(n.LastIndex())
	n.match[n.cfg.ID] = n.LastIndex()
	n.maybeCommit() // single-member cluster commits immediately
	return n.LastIndex(), n.broadcastApp(), true
}

// broadcastApp builds one MsgApp per peer from its next index.
func (n *Node) broadcastApp() []Message {
	msgs := make([]Message, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		msgs = append(msgs, n.appTo(p))
	}
	return msgs
}

// appTo builds the MsgApp for one peer: entries from its next index,
// bounded by MaxBatch, preceded by the (index, term) consistency probe.
func (n *Node) appTo(p uint64) Message {
	next := n.next[p]
	if next < 1 {
		next = 1
	}
	prev := next - 1
	m := Message{
		Type: MsgApp, From: n.cfg.ID, To: p, Term: n.term,
		LogIndex: prev, LogTerm: n.TermAt(prev), Commit: n.commit,
	}
	if next <= n.LastIndex() {
		hi := next + uint64(n.cfg.MaxBatch)
		if hi > n.LastIndex()+1 {
			hi = n.LastIndex() + 1
		}
		m.Entries = n.log[next-1 : hi-1]
	}
	return m
}

// maybeCommit advances the commit index to the highest entry of the
// current term replicated on a majority. Entries from older terms commit
// only transitively (the raft commit restriction; figure 8 of the paper).
func (n *Node) maybeCommit() bool {
	advanced := false
	for idx := n.commit + 1; idx <= n.LastIndex(); idx++ {
		if n.TermAt(idx) != n.term {
			continue
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.match[p] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commit = idx
			advanced = true
		}
	}
	return advanced
}

// stepDown reverts to follower in term, optionally recording the leader.
func (n *Node) stepDown(term, leader uint64) {
	if term > n.term {
		n.term = term
		n.vote = 0
		n.dirty = true
	}
	n.role = Follower
	n.leader = leader
	n.votes = nil
	n.next, n.match = nil, nil
	n.resetTimer()
}

// Step processes one incoming message and returns messages to send.
func (n *Node) Step(m Message) []Message {
	if m.Term > n.term {
		// Higher term: adopt it. Only an append names the sender leader.
		leader := uint64(0)
		if m.Type == MsgApp {
			leader = m.From
		}
		n.stepDown(m.Term, leader)
	}
	switch m.Type {
	case MsgVote:
		return n.stepVote(m)
	case MsgVoteResp:
		return n.stepVoteResp(m)
	case MsgApp:
		return n.stepApp(m)
	case MsgAppResp:
		return n.stepAppResp(m)
	}
	return nil // unknown message types are ignored (forward-extensible)
}

// stepVote answers a vote request: grant iff the term is current, no
// conflicting vote exists this term, and the candidate's log is at least
// as up to date as ours.
func (n *Node) stepVote(m Message) []Message {
	resp := Message{Type: MsgVoteResp, From: n.cfg.ID, To: m.From, Term: n.term, Reject: true}
	if m.Term < n.term {
		return []Message{resp}
	}
	upToDate := m.LogTerm > n.lastTerm() ||
		(m.LogTerm == n.lastTerm() && m.LogIndex >= n.LastIndex())
	if (n.vote == 0 || n.vote == m.From) && upToDate && n.role == Follower {
		n.vote = m.From
		n.dirty = true
		n.resetTimer() // granting a vote defers our own candidacy
		resp.Reject = false
	}
	return []Message{resp}
}

// stepVoteResp tallies a vote; a majority wins the term.
func (n *Node) stepVoteResp(m Message) []Message {
	if n.role != Candidate || m.Term != n.term || m.Reject {
		return nil
	}
	n.votes[m.From] = true
	if len(n.votes) >= n.quorum() {
		return n.becomeLeader()
	}
	return nil
}

// stepApp handles replication: verify the consistency probe, truncate any
// conflicting suffix, append, and advance the local commit index.
func (n *Node) stepApp(m Message) []Message {
	resp := Message{Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: n.term}
	if m.Term < n.term {
		resp.Reject = true
		resp.LogIndex = n.LastIndex()
		return []Message{resp}
	}
	// A current-term append asserts m.From's leadership for this term.
	if n.role != Follower || n.leader != m.From {
		n.stepDown(m.Term, m.From)
	}
	n.elapsed = 0
	if m.LogIndex > n.LastIndex() || n.TermAt(m.LogIndex) != m.LogTerm {
		// Log mismatch at the probe point: reject with our last index so
		// the leader backs next up past the gap in one round per term gap.
		resp.Reject = true
		resp.LogIndex = n.LastIndex()
		return []Message{resp}
	}
	for i, e := range m.Entries {
		if e.Index <= n.LastIndex() {
			if n.TermAt(e.Index) == e.Term {
				continue // already have it
			}
			// Conflict: a stale suffix from a deposed leader. Truncate it
			// (it is necessarily uncommitted) and take the new entries.
			n.log = n.log[:e.Index-1]
			if n.taken > uint64(len(n.log)) {
				n.taken = uint64(len(n.log))
			}
		}
		n.markLog(e.Index)
		n.log = append(n.log, m.Entries[i:]...)
		n.dirty = true
		break
	}
	lastNew := m.LogIndex + uint64(len(m.Entries))
	if m.Commit > n.commit {
		n.commit = min(m.Commit, lastNew)
	}
	resp.LogIndex = lastNew
	return []Message{resp}
}

// stepAppResp advances (or backs up) a peer's replication state.
func (n *Node) stepAppResp(m Message) []Message {
	if n.role != Leader || m.Term != n.term {
		return nil
	}
	if m.Reject {
		// Back up to the peer's last index (or one step) and reprobe.
		next := n.next[m.From]
		if next > m.LogIndex+1 {
			next = m.LogIndex + 1
		} else if next > 1 {
			next--
		}
		n.next[m.From] = next
		return []Message{n.appTo(m.From)}
	}
	if m.LogIndex > n.match[m.From] {
		n.match[m.From] = m.LogIndex
	}
	if n.next[m.From] < m.LogIndex+1 {
		n.next[m.From] = m.LogIndex + 1
	}
	var msgs []Message
	if n.maybeCommit() {
		// Publish the new commit index immediately; the heartbeat would
		// get there eventually but failover latency budgets are ticks.
		msgs = n.broadcastApp()
	} else if n.next[m.From] <= n.LastIndex() {
		msgs = append(msgs, n.appTo(m.From)) // stream the rest of the log
	}
	return msgs
}
