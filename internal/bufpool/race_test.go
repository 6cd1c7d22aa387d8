//go:build race

package bufpool

// Under the race detector sync.Pool drops a quarter of all Puts on
// purpose, so "a warmed pool allocates nothing" does not hold there.
const poolDropsPuts = true
