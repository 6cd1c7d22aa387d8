//go:build race

package squid

// The race detector's instrumentation is free to allocate where the
// program does not, so an allocation guard counts only the build the
// program ships as.
const raceDetector = true
