//go:build !race

package bufpool

const poolDropsPuts = false
