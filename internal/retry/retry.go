// Package retry provides the bounded exponential backoff with jitter
// used by Lobster's client paths (chirp, xrootd, squid origin fetches,
// worker staging). The paper's environment loses workers and drops
// connections as a matter of course; related work (Sobie et al.,
// the LIGO/OSG adaptation) attributes most recovered job failures to
// retry policy at the transfer layer — so transient errors must be
// retried with backoff, and only genuinely permanent errors (protocol
// violations, server-reported failures) may surface on first strike.
//
// Determinism: jitter is drawn from a seeded splitmix64 walk, so the
// same Policy produces the same delay sequence — chaos tests replay
// byte-identical storms, and two clients with different seeds still
// decorrelate their retries.
package retry

import (
	"errors"
	"fmt"
	"time"

	"lobster/internal/stats"
)

// Policy bounds a retry loop. The zero Policy performs exactly one
// attempt (no retries), so embedding a Policy field is free until
// configured.
type Policy struct {
	// MaxAttempts caps total attempts (first try included). 0 or 1
	// means no retries.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule (default 10ms when
	// retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps any single backoff sleep (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts (default 2).
	Multiplier float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter]
	// times its nominal value. Values outside [0,1) (including the
	// zero value) normalise to 0.2.
	Jitter float64
	// Seed drives the deterministic jitter stream.
	Seed uint64
	// Sleep replaces time.Sleep (tests make backoff free). Nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// Enabled reports whether the policy will ever retry.
func (p Policy) Enabled() bool { return p.MaxAttempts > 1 }

// norm fills defaults for a policy that has retries enabled.
func (p Policy) norm() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 || p.Jitter >= 1 {
		p.Jitter = 0.2
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Delay returns the backoff before attempt n+1 (n counts completed
// attempts, from 1): min(MaxDelay, Base·Mult^(n-1)) spread by the
// deterministic jitter draw for n.
func (p Policy) Delay(n int) time.Duration {
	p = p.norm()
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		u := unit(p.Seed + uint64(n)) // [0,1)
		d *= 1 - p.Jitter + 2*p.Jitter*u
	}
	return time.Duration(d)
}

// unit maps x to [0,1) via splitmix64.
func unit(x uint64) float64 {
	return float64(stats.SplitMix64(x)>>11) / (1 << 53)
}

// Do runs fn up to MaxAttempts times, sleeping the backoff schedule
// between attempts. It stops early on success or on a permanent error.
// The returned error is the last attempt's error wrapped in *Error
// (recording the attempt count); the whole chain — including any
// Permanent marker — stays reachable through errors.Is/As, so outer
// retry loops see the same classification this one did.
func (p Policy) Do(fn func() error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	if attempts > 1 {
		p = p.norm()
	}
	var err error
	for n := 1; ; n++ {
		err = fn()
		if err == nil {
			return nil
		}
		if IsPermanent(err) || n >= attempts {
			return &Error{Attempts: n, Err: err}
		}
		p.Sleep(p.Delay(n))
	}
}

// Error wraps the final error of an exhausted (or permanently failed)
// retry loop with its attempt count.
type Error struct {
	Attempts int
	Err      error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("after %d attempts: %v", e.Attempts, e.Err)
	}
	return e.Err.Error()
}

// Unwrap exposes the final cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// ErrPermanent is the sentinel permanent errors match via errors.Is.
var ErrPermanent = errors.New("permanent error")

func (p *permanentError) Is(target error) bool { return target == ErrPermanent }

// Permanent marks err as permanent: Do will not retry past it. A nil
// err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	return errors.Is(err, ErrPermanent)
}
