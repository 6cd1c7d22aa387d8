package parrot

import (
	"syscall"
	"unsafe"

	"lobster/internal/bufpool"
)

// The hot release scan calls the kernel directly on the NUL-terminated
// paths a hotCatalog keeps: os.Open would copy each path into a fresh C
// string, allocate a File and try to register the descriptor with the
// poller, and os.Stat would allocate a fileStat, all once per object per
// task (DESIGN.md section 17, hot WarmRelease). This is the one non-test
// file of the module that imports unsafe (make copy-lint).

// atFDCWD is AT_FDCWD from <fcntl.h>, which package syscall does not
// export. A variable, so that it converts to uintptr at run time: it is
// negative.
var atFDCWD = -0x64

// scanPath reads the cached object at path (NUL-terminated) end to end
// through a pooled chunk, as a job touching a release file does, and
// returns its size: a hit that keeps no bytes allocates nothing.
func (i *Instance) scanPath(path []byte) (size int64, ok bool) {
	fd, err := openRead(path)
	if err != nil {
		return 0, false
	}
	defer syscall.Close(fd)
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for {
		n, err := syscall.Read(fd, *buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, false
		case n == 0:
			i.stats.Hits++
			return size, true
		}
		size += int64(n)
	}
}

// openRead is openat(AT_FDCWD, path, O_RDONLY|O_CLOEXEC).
func openRead(path []byte) (int, error) {
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(atFDCWD),
			uintptr(unsafe.Pointer(&path[0])), syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
		switch errno {
		case 0:
			return int(fd), nil
		case syscall.EINTR:
			continue
		default:
			return -1, errno
		}
	}
}

// onDisk reports whether the object at path (NUL-terminated) exists:
// faccessat(AT_FDCWD, path, F_OK).
func onDisk(path []byte) bool {
	for {
		_, _, errno := syscall.Syscall(syscall.SYS_FACCESSAT, uintptr(atFDCWD),
			uintptr(unsafe.Pointer(&path[0])), 0)
		if errno != syscall.EINTR {
			return errno == 0
		}
	}
}
