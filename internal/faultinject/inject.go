package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lobster/internal/stats"
)

// ErrInjected is the sentinel every injected error matches via
// errors.Is, so tests (and retry classification) can tell a synthetic
// fault from an organic one.
var ErrInjected = errors.New("injected fault")

// Error is the concrete error an injection returns. It is transient by
// construction — the fault plane models the environment's flakiness, not
// logic bugs — so it reports Temporary() true and is never classified
// permanent by the retry layer.
type Error struct {
	Component string
	Op        string
	N         int64 // invocation index that drew the verdict (1-based)
	Action    Action
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	msg := e.Msg
	if msg == "" {
		msg = string(e.Action)
	}
	return fmt.Sprintf("faultinject: %s/%s invocation %d: %s", e.Component, e.Op, e.N, msg)
}

// Is matches ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Temporary marks injected faults as transient (net.Error convention).
func (e *Error) Temporary() bool { return true }

// keyState is the per-(component,op) invocation counter plus per-rule
// firing counts for Times budgets.
type keyState struct {
	n     int64 // invocations seen
	fired int64 // verdicts other than ActNone
	// ruleFired counts firings per rule index, for Times budgets. The
	// budget is per key: a rule matching several keys has an
	// independent budget on each, which keeps verdicts a pure function
	// of (seed, key, n) regardless of cross-key interleaving.
	ruleFired map[int]int64
}

// Injector evaluates a Plan at runtime. The nil Injector is fully
// disabled: every method is a no-op fast path. Safe for concurrent use.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	keys map[string]*keyState

	// sleep is the stall implementation; tests stub it to run storms
	// without wall-clock cost.
	sleep func(time.Duration)
}

// New builds an injector for plan. A nil or empty plan yields a nil
// (disabled) injector, so call sites can thread the result
// unconditionally.
func New(plan *Plan) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	return &Injector{
		plan:  *plan,
		keys:  make(map[string]*keyState),
		sleep: time.Sleep,
	}
}

// SetSleep replaces the stall implementation (tests make delays free).
// Call before traffic.
func (in *Injector) SetSleep(fn func(time.Duration)) {
	if in == nil || fn == nil {
		return
	}
	in.sleep = fn
}

// hashString folds s into h (FNV-1a step).
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// gate is the deterministic probability draw for invocation n of key:
// a pure function of (seed, key, n), so the same plan always gates the
// same invocations no matter how goroutines interleave.
func (in *Injector) gate(key string, n int64, prob float64) bool {
	if prob <= 0 || prob >= 1 {
		return true
	}
	h := stats.SplitMix64(hashString(in.plan.Seed^0x5bf03635, key) + uint64(n))
	return float64(h>>11)/(1<<53) < prob
}

// Decide draws the verdict for the next invocation of (component, op).
// The first matching rule in plan order whose schedule selects this
// invocation wins. A nil injector always returns the zero verdict.
func (in *Injector) Decide(component, op string) Verdict {
	if in == nil {
		return Verdict{}
	}
	key := component + "\x00" + op
	in.mu.Lock()
	st := in.keys[key]
	if st == nil {
		st = &keyState{ruleFired: make(map[int]int64)}
		in.keys[key] = st
	}
	st.n++
	n := st.n
	var v Verdict
	var matched = -1
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.matches(component, op) {
			continue
		}
		if n <= r.After {
			continue
		}
		every := r.Every
		if every < 1 {
			every = 1
		}
		if (n-r.After-1)%every != 0 {
			continue
		}
		if r.Times > 0 && st.ruleFired[i] >= r.Times {
			continue
		}
		if !in.gate(key, n, r.Prob) {
			continue
		}
		matched = i
		v = Verdict{Action: r.Action, Delay: time.Duration(r.DelayMS) * time.Millisecond}
		if r.Action == ActError || r.Action == ActDrop || r.Action == ActStallKill {
			v.Err = &Error{Component: component, Op: op, N: n, Action: r.Action, Msg: r.Message}
		}
		break
	}
	if matched >= 0 {
		st.ruleFired[matched]++
		st.fired++
	}
	in.mu.Unlock()
	return v
}

// Check is the hook-point form of Decide for call sites without a
// connection to act on (wrapper segments, xrootd fetch, worker staging):
// delays stall in place, and error-like verdicts (error, drop,
// stall-kill) return the injected error after any stall. Corrupt
// verdicts have nothing to corrupt here and degrade to errors, so a
// plan stays meaningful wherever it lands.
func (in *Injector) Check(component, op string) error {
	if in == nil {
		return nil
	}
	v := in.Decide(component, op)
	switch v.Action {
	case ActNone:
		return nil
	case ActDelay:
		in.sleep(v.Delay)
		return nil
	case ActStallKill:
		in.sleep(v.Delay)
		return v.Err
	case ActCorrupt:
		return &Error{Component: component, Op: op, Action: ActCorrupt, Msg: "corrupt (no payload at hook point)"}
	default:
		return v.Err
	}
}

// Fired returns how many non-none verdicts (component, op) has drawn —
// the assertion handle chaos tests use to prove a storm actually hit.
func (in *Injector) Fired(component, op string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.keys[component+"\x00"+op]; st != nil {
		return st.fired
	}
	return 0
}

// TotalFired sums Fired over every key seen.
func (in *Injector) TotalFired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var total int64
	for _, st := range in.keys {
		total += st.fired
	}
	return total
}

// Invocations returns how many times (component, op) has been decided.
func (in *Injector) Invocations(component, op string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.keys[component+"\x00"+op]; st != nil {
		return st.n
	}
	return 0
}
