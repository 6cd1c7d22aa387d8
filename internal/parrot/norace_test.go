//go:build !race

package parrot

const poolDropsPuts = false
