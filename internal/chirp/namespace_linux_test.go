package chirp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// namespaceEvents watches dir for entries made, removed and moved in or
// out; the returned func reads what has happened since, as "IN_CREATE
// name" lines.
func namespaceEvents(t *testing.T, dir string) func() []string {
	t.Helper()
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("no inotify: %v", err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	const mask = syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO
	if _, err := syscall.InotifyAddWatch(fd, dir, mask); err != nil {
		t.Fatal(err)
	}
	names := map[uint32]string{syscall.IN_CREATE: "IN_CREATE", syscall.IN_DELETE: "IN_DELETE",
		syscall.IN_MOVED_FROM: "IN_MOVED_FROM", syscall.IN_MOVED_TO: "IN_MOVED_TO"}
	return func() []string {
		var out []string
		buf := make([]byte, 64<<10)
		for {
			n, err := syscall.Read(fd, buf)
			if errors.Is(err, syscall.EAGAIN) {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off+syscall.SizeofInotifyEvent <= n; {
				ev := buf[off:]
				kind := binary.NativeEndian.Uint32(ev[4:]) &^ syscall.IN_ISDIR
				size := int(binary.NativeEndian.Uint32(ev[12:]))
				name := strings.TrimRight(string(ev[syscall.SizeofInotifyEvent:syscall.SizeofInotifyEvent+size]), "\x00")
				label, ok := names[kind]
				if !ok {
					label = fmt.Sprintf("0x%x", kind)
				}
				out = append(out, label+" "+name)
				off += syscall.SizeofInotifyEvent + size
			}
		}
	}
}

// TestPutIsOneNamespaceEvent: a put into an existing directory shows in
// it as one namespace operation, the final name moved in. A temp file
// made beside the target would add its create and its move out.
func TestPutIsOneNamespaceEvent(t *testing.T) {
	srv, lfs := newTestServer(t, 4)
	c := dial(t, srv)
	if err := c.PutFile("/warm.root", []byte("first put of the server")); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(lfs.Root(), "out")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	events := namespaceEvents(t, out)
	if err := c.PutFile("/out/task_1.root", []byte("8 bytes!")); err != nil {
		t.Fatal(err)
	}
	if got := events(); len(got) != 1 || got[0] != "IN_MOVED_TO task_1.root" {
		t.Errorf("one put made %q in the target directory, want [IN_MOVED_TO task_1.root]", got)
	}
}

// TestHalfSentPutIsInvisible: while a put's payload is half sent the
// target directory lists nothing, on disk or over the FileSystem; once
// the client hangs up the target is absent and the spool holds nothing.
func TestHalfSentPutIsInvisible(t *testing.T) {
	srv, lfs := newTestServer(t, 4)
	if err := os.Mkdir(filepath.Join(lfs.Root(), "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "putfile /out/half.root 1000\n%s", strings.Repeat("h", 500)); err != nil {
		t.Fatal(err)
	}
	// The server has taken the first half once a 500-byte file exists.
	spooling := func() bool {
		for _, f := range regularFiles(lfs.Root()) {
			if st, err := os.Stat(f); err == nil && st.Size() == 500 {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !spooling(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no half-written payload under the root: %v", regularFiles(lfs.Root()))
		}
	}
	if entries, err := os.ReadDir(filepath.Join(lfs.Root(), "out")); err != nil || len(entries) != 0 {
		t.Errorf("mid-payload the target directory holds %v (%v)", entries, err)
	}
	if ls, err := lfs.List("/out"); err != nil || len(ls) != 0 {
		t.Errorf("mid-payload List(/out) = %+v, %v", ls, err)
	}

	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); len(regularFiles(lfs.Root())) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after the hang-up the root still holds %v", regularFiles(lfs.Root()))
		}
	}
	if _, err := os.Stat(filepath.Join(lfs.Root(), "out", "half.root")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the torn put's target: %v, want absent", err)
	}
	if left := spoolEntries(t, lfs.Root()); len(left) != 0 {
		t.Errorf("the spool holds %v after the hang-up", left)
	}
}

// TestPutAcrossMountLandsBeside: a directory under the root that is
// another file system (here a symlink into /dev/shm) cannot take a rename
// out of the spool directory. The put is copied beside its target and
// lands whole, every later put spools beside its target, and neither
// leaves a spool file behind.
func TestPutAcrossMountLandsBeside(t *testing.T) {
	srv, lfs := newTestServer(t, 4)
	vol, err := os.MkdirTemp("/dev/shm", "chirp-xdev-")
	if err != nil {
		t.Skipf("no second file system to put across: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(vol) })
	var root, other syscall.Stat_t
	if err := syscall.Stat(lfs.Root(), &root); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Stat(vol, &other); err != nil {
		t.Fatal(err)
	}
	if root.Dev == other.Dev {
		t.Skip("/dev/shm is on the export root's file system")
	}
	if err := os.Symlink(vol, filepath.Join(lfs.Root(), "vol")); err != nil {
		t.Fatal(err)
	}
	c := dial(t, srv)
	if err := c.PutFile("/warm.root", []byte("on the root's file system")); err != nil {
		t.Fatal(err)
	}
	if lfs.beside.Load() {
		t.Fatal("a put on the root's own file system gave up the spool directory")
	}
	payload := bytes.Repeat([]byte("xdev"), 16<<10)
	for _, name := range []string{"first.root", "next.root"} {
		if err := c.PutFile("/vol/"+name, payload); err != nil {
			t.Fatalf("put %s across the mount: %v", name, err)
		}
		if got, err := os.ReadFile(filepath.Join(vol, name)); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s landed %d bytes, %v; want the %d sent", name, len(got), err, len(payload))
		}
	}
	if !lfs.beside.Load() {
		t.Error("a rename that crossed a mount left puts in the spool directory")
	}
	if entries, err := os.ReadDir(vol); err != nil || len(entries) != 2 {
		t.Errorf("the mounted directory holds %v (%v), want the two puts", entries, err)
	}
	if left := spoolEntries(t, lfs.Root()); len(left) != 0 {
		t.Errorf("the spool holds %v after the puts across the mount", left)
	}
}
