package wire

import "time"

// SetClock points p's idle limit at now.
func SetClock[C any](p *Pool[C], now func() time.Time) { p.now = now }
