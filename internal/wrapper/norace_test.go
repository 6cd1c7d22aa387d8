//go:build !race

package wrapper

const poolDropsPuts = false
