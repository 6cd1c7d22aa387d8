//go:build !race

package squid

const raceDetector = false
