package bufpool

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// dribble serves its bytes at most step a Read and then fails with err
// (io.EOF for a clean end): a connection that delivers less than was
// announced.
type dribble struct {
	left []byte
	step int
	err  error
}

func (d *dribble) Read(p []byte) (int, error) {
	if len(d.left) == 0 {
		return 0, d.err
	}
	n := copy(p[:min(len(p), d.step)], d.left)
	d.left = d.left[n:]
	return n, nil
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// TestArrivalTakesOneAllocationOfTheAnnouncedSize is the rule itself: an
// object announced at or below MaxSized lands in one allocation of
// exactly that size, whatever the size of the reads that deliver it.
func TestArrivalTakesOneAllocationOfTheAnnouncedSize(t *testing.T) {
	const size = 5<<20 + 12345
	want := pattern(size)
	var land Arrival
	src := &dribble{left: want, step: 300 << 10, err: io.EOF}
	var n int64
	var err error
	got := allocatedBy(func() {
		land.Announced = size
		n, err = land.ReadFrom(src)
	})
	if err != nil || n != size || !bytes.Equal(land.Bytes(), want) {
		t.Fatalf("ReadFrom = %d, %v; bytes equal %v", n, err, bytes.Equal(land.Bytes(), want))
	}
	if cap(land.Bytes()) != size {
		t.Errorf("capacity %d, want exactly the announced %d", cap(land.Bytes()), size)
	}
	if limit := uint64(size + size/50 + 64<<10); got > limit {
		t.Errorf("allocated %d bytes landing %d, want at most %d", got, size, limit)
	}
}

// TestArrivalCommitsNothingOnAPeersWord: what a liar gets. An announced
// 1 TiB followed by 1 KiB costs about a chunk; an empty object costs
// nothing at all.
func TestArrivalCommitsNothingOnAPeersWord(t *testing.T) {
	hangup := errors.New("peer hung up")
	var land Arrival
	got := allocatedBy(func() {
		land.Announced = 1 << 40
		n, err := land.ReadFrom(&dribble{left: pattern(1 << 10), step: 1 << 10, err: hangup})
		if n != 1<<10 || err != hangup {
			t.Errorf("ReadFrom = %d, %v, want 1024 and the hang-up", n, err)
		}
	})
	if got >= 4<<20 {
		t.Errorf("1 TiB announced, 1 KiB sent: %d bytes allocated, want under 4 MiB", got)
	}
	if !bytes.Equal(land.Bytes(), pattern(1<<10)) {
		t.Error("the bytes that did arrive were not kept")
	}

	// An empty object asks its source for nothing and takes no room.
	land = Arrival{}
	n, err := land.ReadFrom(&dribble{left: []byte("next reply"), step: 4, err: io.EOF})
	if n != 0 || err != nil || land.Bytes() != nil {
		t.Errorf("empty object: ReadFrom = %d, %v, allocated %v", n, err, land.Bytes() != nil)
	}
}

// TestArrivalStopsAtTheAnnouncedSize: the payload is followed by the
// next reply on the same connection, which ReadFrom must leave alone —
// and the last Read must not ask for room past the reservation, which
// would regrow it.
func TestArrivalStopsAtTheAnnouncedSize(t *testing.T) {
	const size = 3 << 20
	stream := append(pattern(size), "0\n"...)
	src := bytes.NewReader(stream)
	var land Arrival
	land.Announced = size
	if n, err := land.ReadFrom(src); n != size || err != nil {
		t.Fatalf("ReadFrom = %d, %v", n, err)
	}
	if src.Len() != 2 || cap(land.Bytes()) != size {
		t.Errorf("%d bytes left behind the payload (want 2), capacity %d (want %d)", src.Len(), cap(land.Bytes()), size)
	}
}

// TestArrivalResumesInPlace: a source that fails mid-object is replaced
// and the rest lands behind what the first delivered, in the allocation
// the first read took.
func TestArrivalResumesInPlace(t *testing.T) {
	const size, cut = 4 << 20, 1<<20 + 777
	want := pattern(size)
	reset := errors.New("connection reset")
	var land Arrival
	land.Announced = size
	n, err := land.ReadFrom(&dribble{left: want[:cut], step: 64 << 10, err: reset})
	if n != cut || err != reset {
		t.Fatalf("first source: %d, %v", n, err)
	}
	first := &land.Bytes()[0]
	land.Announced = size // the reopened source announces again
	n, err = land.ReadFrom(&dribble{left: want[cut:], step: 1 << 20, err: io.EOF})
	if n != size-cut || err != nil || !bytes.Equal(land.Bytes(), want) {
		t.Fatalf("resumed: %d, %v, bytes equal %v", n, err, bytes.Equal(land.Bytes(), want))
	}
	if &land.Bytes()[0] != first {
		t.Error("the resumed transfer landed in a different allocation")
	}
}

// TestArrivalGrowsPastWhatWasAnnounced: slices handed to Write land
// whole, an unannounced source is read to its end, and an object past
// MaxSized grows with its arrivals instead of taking its peer's word.
func TestArrivalGrowsPastWhatWasAnnounced(t *testing.T) {
	var land Arrival
	land.Announced = 8
	land.Write([]byte("0123"))
	land.Write(nil)
	land.Write([]byte("456789ab")) // four more than announced
	if string(land.Bytes()) != "0123456789ab" {
		t.Errorf("Write landed %q", land.Bytes())
	}

	want := pattern(2<<20 + 5)
	land = Arrival{}
	land.Announced = -1
	if n, err := land.ReadFrom(&dribble{left: want, step: 700 << 10, err: io.EOF}); n != int64(len(want)) || err != nil {
		t.Fatalf("unannounced: ReadFrom = %d, %v", n, err)
	}
	if !bytes.Equal(land.Bytes(), want) {
		t.Error("unannounced object differs from its source")
	}

	land = Arrival{}
	land.Announced = MaxSized + 1
	land.Write(want)
	if c := cap(land.Bytes()); c > 2*len(want) {
		t.Errorf("announced past MaxSized: capacity %d after %d bytes arrived", c, len(want))
	}
}
