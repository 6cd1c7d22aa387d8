package replica

import (
	"fmt"
	"sort"

	"lobster/internal/simevent"
	"lobster/internal/stats"
)

// Sim plane: the identical Node state machine driven by the deterministic
// discrete-event kernel instead of wall-clock tickers and TCP. Message
// latency, message loss, election jitter, and the kill schedule are all
// pure functions of the seed, so a (seed, fault plan) pair replays to a
// bit-identical election transcript — the property the golden determinism
// test pins and the model checker sweeps.

// SimKill schedules one member death. Node 0 means "whoever leads at that
// instant" — the leader-kill storm's fault plan. Restart, when non-zero,
// revives the member at that absolute time with its durable state (term,
// vote, log) intact, as a store-backed member would.
type SimKill struct {
	Time    float64 `json:"time"`
	Node    uint64  `json:"node,omitempty"`
	Restart float64 `json:"restart,omitempty"`
}

// SimProposal submits data at whichever member leads at Time (skipped and
// recorded when no leader is known at that instant).
type SimProposal struct {
	Time float64 `json:"time"`
	Data string  `json:"data"`
}

// SimConfig configures one simulated cluster run.
type SimConfig struct {
	Nodes         int
	Seed          uint64
	Duration      float64 // simulated seconds
	TickEvery     float64 // default 0.01
	ElectionTicks int     // default 10
	// Message latency is drawn uniformly (and deterministically) from
	// [MinLatency, MaxLatency); defaults 1–5 ms.
	MinLatency, MaxLatency float64
	// DropProb drops each message independently and deterministically.
	DropProb  float64
	Kills     []SimKill
	Proposals []SimProposal
}

// SimResult is the outcome: the election transcript, safety bookkeeping,
// and per-member applied streams.
type SimResult struct {
	// Transcript is one line per role/term transition and per scheduled
	// event, in simulated-time order — the golden-pinnable failover story.
	Transcript []string
	// LeadersByTerm maps each term to the members that won it. Any term
	// with two winners is a safety violation.
	LeadersByTerm map[uint64][]uint64
	// Elections counts candidate transitions.
	Elections int
	// FirstLeaderAt and TakeoverAt are the instants of the first election
	// and of the first leader elected strictly after the first kill (-1 if
	// never).
	FirstLeaderAt float64
	TakeoverAt    float64
	// Applied is each member's applied data stream (barrier entries
	// skipped), keyed by member ID, as of the end of the run (dead
	// members keep the stream they had at death).
	Applied map[uint64][]string
	// Violations lists safety violations detected during or after the
	// run; a correct protocol leaves it empty for every seed.
	Violations []string
}

// simMember is one simulated cluster member.
type simMember struct {
	id      uint64
	node    *Node
	alive   bool
	applied []string
	// durable state snapshot, maintained continuously (the sim-plane
	// analogue of the store WAL): survives kill for a later restart.
	hs  HardState
	log []Entry
	// lastObserved dedupes transcript lines ("role|term" of the last
	// recorded transition).
	lastObserved string
}

// simRun carries the run's mutable state across event callbacks.
type simRun struct {
	cfg     SimConfig
	sim     *simevent.Sim
	members []*simMember
	res     *SimResult
	draws   uint64 // deterministic random stream position
	killed  bool   // first kill has happened
}

// rand64 draws the next value from the run's deterministic stream.
func (r *simRun) rand64() uint64 {
	r.draws++
	return stats.SplitMix64(r.cfg.Seed ^ r.draws*0x9E3779B97F4A7C15)
}

// latency draws a message delivery latency.
func (r *simRun) latency() float64 {
	span := r.cfg.MaxLatency - r.cfg.MinLatency
	if span <= 0 {
		return r.cfg.MinLatency
	}
	return r.cfg.MinLatency + span*float64(r.rand64()>>11)/(1<<53)
}

// dropped decides message loss.
func (r *simRun) dropped() bool {
	if r.cfg.DropProb <= 0 {
		return false
	}
	return float64(r.rand64()>>11)/(1<<53) < r.cfg.DropProb
}

func (r *simRun) logf(format string, args ...any) {
	r.res.Transcript = append(r.res.Transcript,
		fmt.Sprintf("t=%.3f ", r.sim.Now())+fmt.Sprintf(format, args...))
}

// member returns the simMember with the given id.
func (r *simRun) member(id uint64) *simMember {
	return r.members[id-1]
}

// leaderNow returns the live leader with the highest term, or nil.
func (r *simRun) leaderNow() *simMember {
	var best *simMember
	for _, m := range r.members {
		if m.alive && m.node.Role() == Leader {
			if best == nil || m.node.Term() > best.node.Term() {
				best = m
			}
		}
	}
	return best
}

// dispatch routes messages produced by a node step: each is dropped or
// scheduled for delivery after a drawn latency.
func (r *simRun) dispatch(msgs []Message) {
	for _, m := range msgs {
		if r.dropped() {
			continue
		}
		msg := m
		r.sim.Schedule(r.latency(), func() { r.deliver(msg) })
	}
}

// deliver steps the target node (if alive) with the message.
func (r *simRun) deliver(m Message) {
	if m.To == 0 || m.To > uint64(len(r.members)) {
		return
	}
	tgt := r.member(m.To)
	if !tgt.alive {
		return
	}
	out := tgt.node.Step(m)
	r.after(tgt, out)
}

// after is the sim-plane analogue of Group.afterStep: persist the durable
// snapshot, observe transitions, apply committed entries, send messages.
func (r *simRun) after(m *simMember, msgs []Message) {
	if hs, logFrom, changed := m.node.TakeDirty(); changed {
		m.hs = hs
		if logFrom > 0 {
			m.log = append(m.log[:min(uint64(len(m.log)), logFrom-1)], m.node.Entries(logFrom)...)
			m.log = append([]Entry(nil), m.log...) // snapshot, un-aliased
		}
	}
	r.observe(m)
	for _, e := range m.node.TakeCommitted() {
		if len(e.Data) > 0 {
			m.applied = append(m.applied, string(e.Data))
		}
	}
	r.dispatch(msgs)
}

// observe records role/term transitions, transcript lines, and safety
// bookkeeping.
func (r *simRun) observe(m *simMember) {
	role, term := m.node.Role(), m.node.Term()
	key := fmt.Sprintf("%d|%d", uint64(role), term)
	if m.lastObserved == key {
		return
	}
	m.lastObserved = key
	r.logf("node=%d term=%d role=%s", m.id, term, role)
	switch role {
	case Candidate:
		r.res.Elections++
	case Leader:
		winners := r.res.LeadersByTerm[term]
		for _, w := range winners {
			if w != m.id {
				r.res.Violations = append(r.res.Violations,
					fmt.Sprintf("term %d has two leaders: %d and %d", term, w, m.id))
			}
		}
		r.res.LeadersByTerm[term] = append(winners, m.id)
		if r.res.FirstLeaderAt < 0 {
			r.res.FirstLeaderAt = r.sim.Now()
		}
		if r.killed && r.res.TakeoverAt < 0 {
			r.res.TakeoverAt = r.sim.Now()
		}
	}
}

// tickMember advances one member's logical clock and reschedules itself.
func (r *simRun) tickMember(m *simMember) {
	if !m.alive {
		return
	}
	out := m.node.Tick()
	r.after(m, out)
	r.sim.Schedule(r.cfg.TickEvery, func() { r.tickMember(m) })
}

// RunSim executes one simulated cluster run and returns its transcript,
// safety bookkeeping, and applied streams. Deterministic: the same config
// always returns the identical result.
func RunSim(cfg SimConfig) SimResult {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 0.01
	}
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 10
	}
	if cfg.MaxLatency <= 0 {
		cfg.MinLatency, cfg.MaxLatency = 0.001, 0.005
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10
	}
	res := &SimResult{
		LeadersByTerm: make(map[uint64][]uint64),
		Applied:       make(map[uint64][]string),
		FirstLeaderAt: -1, TakeoverAt: -1,
	}
	r := &simRun{cfg: cfg, sim: simevent.New(), res: res}

	peers := make([]uint64, cfg.Nodes)
	for i := range peers {
		peers[i] = uint64(i + 1)
	}
	for _, id := range peers {
		m := &simMember{id: id, alive: true}
		m.node = NewNode(Config{
			ID: id, Peers: peers, Seed: cfg.Seed ^ id, ElectionTicks: cfg.ElectionTicks,
		}, HardState{}, nil)
		r.members = append(r.members, m)
	}
	for _, m := range r.members {
		mm := m
		r.sim.Schedule(cfg.TickEvery, func() { r.tickMember(mm) })
	}

	for _, k := range cfg.Kills {
		kill := k
		r.sim.At(kill.Time, func() { r.kill(kill) })
	}
	for _, p := range cfg.Proposals {
		prop := p
		r.sim.At(prop.Time, func() { r.propose(prop) })
	}

	r.sim.RunUntil(cfg.Duration)

	for _, m := range r.members {
		res.Applied[m.id] = m.applied
	}
	res.Violations = append(res.Violations, checkPrefixConsistency(res.Applied)...)
	return *res
}

// kill executes one scheduled death (and arms the restart if configured).
func (r *simRun) kill(k SimKill) {
	var victim *simMember
	if k.Node == 0 {
		victim = r.leaderNow()
		if victim == nil {
			r.logf("kill skipped: no leader")
			return
		}
	} else if k.Node <= uint64(len(r.members)) {
		victim = r.member(k.Node)
	}
	if victim == nil || !victim.alive {
		return
	}
	victim.alive = false
	r.killed = true
	r.logf("kill node=%d role=%s term=%d", victim.id, victim.node.Role(), victim.node.Term())
	if k.Restart > 0 {
		id := victim.id
		r.sim.At(k.Restart, func() { r.restart(id) })
	}
}

// restart revives a member from its durable snapshot.
func (r *simRun) restart(id uint64) {
	m := r.member(id)
	if m.alive {
		return
	}
	peers := make([]uint64, len(r.members))
	for i := range peers {
		peers[i] = uint64(i + 1)
	}
	m.node = NewNode(Config{
		ID: id, Peers: peers, Seed: r.cfg.Seed ^ id, ElectionTicks: r.cfg.ElectionTicks,
	}, m.hs, m.log)
	m.lastObserved = ""
	// The rebuilt state machine replays the durable log from index 1, so
	// the applied stream restarts from scratch (as a real standby rebuilds
	// its task DB via ReplayLog).
	m.applied = nil
	m.alive = true
	r.logf("restart node=%d term=%d entries=%d", id, m.hs.Term, len(m.log))
	r.sim.Schedule(r.cfg.TickEvery, func() { r.tickMember(m) })
}

// propose submits at the current leader.
func (r *simRun) propose(p SimProposal) {
	ldr := r.leaderNow()
	if ldr == nil {
		r.logf("propose %q skipped: no leader", p.Data)
		return
	}
	_, msgs, ok := ldr.node.Propose([]byte(p.Data))
	if !ok {
		r.logf("propose %q rejected by node=%d", p.Data, ldr.id)
		return
	}
	r.after(ldr, msgs)
}

// checkPrefixConsistency verifies the committed-entries-never-lost
// property: every member's applied stream must be a prefix of the longest
// one (state-machine safety — applied entries agree at every index).
func checkPrefixConsistency(applied map[uint64][]string) []string {
	ids := make([]uint64, 0, len(applied))
	for id := range applied {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var longest []string
	for _, id := range ids {
		if len(applied[id]) > len(longest) {
			longest = applied[id]
		}
	}
	var out []string
	for _, id := range ids {
		a := applied[id]
		for i := range a {
			if a[i] != longest[i] {
				out = append(out, fmt.Sprintf(
					"node %d applied %q at position %d where the longest stream has %q",
					id, a[i], i, longest[i]))
				break
			}
		}
	}
	return out
}
