package chirp

import "os"

// rename publishes a spool file at its target. Windows' MoveFile, which
// syscall.Rename calls, refuses to replace an existing file, so a put that
// rewrites an output would fail; os.Rename replaces it.
func rename(from, to string) error { return os.Rename(from, to) }
