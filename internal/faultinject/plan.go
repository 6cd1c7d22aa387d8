// Package faultinject is Lobster's deterministic fault plane: a seedable
// Plan of fault rules keyed by component, operation, and invocation count
// that yields verdicts — delay, error, drop-connection, corrupt-byte,
// stall-then-kill — at the seams of the real execution plane. The same
// plan and seed always produce the same storm: verdicts are a pure
// function of (seed, component, op, invocation index), so a failure found
// by a chaos run can be replayed exactly from its JSON plan
// (`lobster -fault-plan storm.json`).
//
// The paper's core claim is surviving a *non-dedicated* environment —
// workers are evicted mid-task, connections drop, services stall. The
// simulation plane models that statistically; this package injects it
// into the real plane (wq master/worker protocol, chirp, squid,
// xrootd, wrapper segments) so the recovery invariants can be asserted
// under test: no task is lost, outputs are byte-identical to a
// fault-free run, and retry accounting reconciles.
//
// A seam is a connection the component wraps (Injector.Conn) or a hook
// point where it asks (Injector.Check, or CheckPayload where it has a
// payload a corrupt verdict flips: the squid's one call per origin
// attempt). Like the telemetry and trace layers, the disabled path is
// free: every method on the nil *Injector is a no-op compiling to a
// single branch (see BenchmarkDisabledInjector, ≤2 ns/op), so components
// hook the fault plane unconditionally.
package faultinject

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Action is the kind of fault a rule injects.
type Action string

// The verdict taxonomy. DelayMS parameterises ActDelay and ActStallKill.
const (
	// ActNone is the zero verdict: proceed normally.
	ActNone Action = ""
	// ActDelay stalls the operation for DelayMS, then lets it proceed.
	ActDelay Action = "delay"
	// ActError fails the operation with an injected error without
	// touching the underlying resource: the connection (or client)
	// stays open, which is exactly the case that exposes missing
	// close-on-error handling.
	ActError Action = "error"
	// ActDrop severs the underlying connection and fails the operation
	// — a worker eviction or a mid-transfer network cut.
	ActDrop Action = "drop"
	// ActCorrupt flips the first byte of the operation's payload and
	// lets it proceed — a torn or bit-rotted transfer that must surface
	// as a parse or validation error, never silent corruption.
	ActCorrupt Action = "corrupt"
	// ActStallKill stalls for DelayMS and then severs the connection —
	// the half-dead service that ties up a client until its per-op
	// timeout fires.
	ActStallKill Action = "stall-kill"
)

// valid reports whether a is a known action.
func (a Action) valid() bool {
	switch a {
	case ActNone, ActDelay, ActError, ActDrop, ActCorrupt, ActStallKill:
		return true
	}
	return false
}

// Rule selects a subset of one component's operations by invocation count
// and assigns them a fault action. Rules are evaluated in plan order; the
// first match wins.
//
// Matching: Component and Op are exact strings, or "*" to match any
// (an empty Op also matches any). Invocations of each (component, op)
// pair are counted from 1; a rule fires on invocation n when
//
//	n > After, and
//	(n - After - 1) % max(Every,1) == 0, and
//	fewer than Times firings have happened (Times 0 = unlimited), and
//	the probability gate passes (Prob 0 or ≥1 = always; otherwise a
//	deterministic hash of the plan seed, the key, and n).
type Rule struct {
	Component string  `json:"component"`
	Op        string  `json:"op,omitempty"`
	Action    Action  `json:"action"`
	After     int64   `json:"after,omitempty"`
	Every     int64   `json:"every,omitempty"`
	Times     int64   `json:"times,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	DelayMS   int64   `json:"delay_ms,omitempty"`
	// Message overrides the injected error text (diagnostic only).
	Message string `json:"message,omitempty"`
}

// matches reports whether the rule selects the (component, op) pair.
func (r *Rule) matches(component, op string) bool {
	if r.Component != "*" && r.Component != component {
		return false
	}
	return r.Op == "" || r.Op == "*" || r.Op == op
}

// Plan is a deterministic fault schedule: a seed plus an ordered rule
// list. The zero Plan injects nothing.
type Plan struct {
	Seed  uint64 `json:"seed,omitempty"`
	Rules []Rule `json:"rules"`
}

// Validate checks every rule for a known action and sane bounds.
func (p *Plan) Validate() error {
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Component == "" {
			return fmt.Errorf("faultinject: rule %d: component is required (use \"*\" for any)", i)
		}
		if r.Action == ActNone || !r.Action.valid() {
			return fmt.Errorf("faultinject: rule %d: unknown action %q", i, r.Action)
		}
		if r.After < 0 || r.Every < 0 || r.Times < 0 || r.DelayMS < 0 {
			return fmt.Errorf("faultinject: rule %d: counts and delays must be non-negative", i)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("faultinject: rule %d: prob %g outside [0,1]", i, r.Prob)
		}
		if (r.Action == ActDelay || r.Action == ActStallKill) && r.DelayMS == 0 {
			return fmt.Errorf("faultinject: rule %d: action %q needs delay_ms", i, r.Action)
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultinject: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and validates the JSON plan at path.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultinject: reading plan: %w", err)
	}
	return ParsePlan(data)
}

// Verdict is the decision for one invocation. The zero Verdict means
// "proceed normally".
type Verdict struct {
	Action Action
	Delay  time.Duration
	Err    error // non-nil for error, drop, and stall-kill verdicts
}
