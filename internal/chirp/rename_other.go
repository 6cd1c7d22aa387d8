//go:build !windows

package chirp

import "syscall"

// rename publishes a spool file at its target with rename(2) alone:
// os.Rename would first Lstat the target, which rename(2) needs no help
// with — it replaces a file atomically and refuses to replace a directory.
func rename(from, to string) error {
	for {
		if err := syscall.Rename(from, to); err != syscall.EINTR {
			return err
		}
	}
}
