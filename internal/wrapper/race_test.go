//go:build race

package wrapper

// Under the race detector sync.Pool drops a quarter of all Puts on
// purpose, encoding/json's pooled encoder state included.
const poolDropsPuts = true
