//go:build race

package parrot

// Under the race detector sync.Pool drops a quarter of all Puts on
// purpose, bufpool's chunks included.
const poolDropsPuts = true
