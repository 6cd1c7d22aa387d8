package wire

import (
	"cmp"
	"fmt"
	"io"
	"os"

	"lobster/internal/bufpool"
	"lobster/internal/retry"
)

// ReadPayload reads exactly the n payload bytes that follow a size line or
// a request line into w, and returns how many of them w took. A
// *bufpool.Arrival lands them straight from the reader. Any other sink is
// handed what the reader already buffered straight out of its buffer, then
// the rest off the socket through bufpool.CopyN, so an *os.File sink takes
// the tail by splice.
//
// A wire that ends short breaks c. A sink that fails leaves c usable only
// where the reader knows how many bytes left the wire: in the buffered
// prefix and on the chunk path the rest of the payload is read and
// dropped, and the sink's error comes back permanent (another attempt
// would feed the same sink). A file that fails mid-splice is not such a
// place — the kernel may have taken bytes off the socket that no count
// includes, and draining "the rest" would wait for bytes that never come —
// so it breaks c, and the error is a retryable transport failure.
func (c *Conn) ReadPayload(w io.Writer, n int64) (int64, error) {
	if err := c.Err(); err != nil {
		return 0, err
	}
	if land, ok := w.(*bufpool.Arrival); ok {
		land.Announced = n
		got, err := land.ReadFrom(c.R)
		if got < n {
			return got, c.Fail(fmt.Errorf("%s: short read: %w", c.proto, cmp.Or(err, io.ErrUnexpectedEOF)))
		}
		return got, nil
	}
	sink := &c.sink
	*sink = sinkWriter{w: w}
	defer func() { sink.w = nil }()
	p, _ := c.R.Peek(int(min(int64(c.R.Buffered()), n)))
	sink.Write(p)
	c.R.Discard(len(p))
	rest := n - int64(len(p))
	if f, ok := w.(*os.File); ok && sink.err == nil {
		m, err := bufpool.CopyN(f, c.Net, rest)
		if err != nil {
			return sink.n + m, c.Fail(fmt.Errorf("%s: receiving payload into %s: %w", c.proto, f.Name(), err))
		}
		return n, nil
	}
	if _, err := bufpool.CopyN(sink, c.Net, rest); err != nil {
		return sink.n, c.Fail(fmt.Errorf("%s: short read: %w", c.proto, err))
	}
	if sink.err != nil {
		return sink.n, retry.Permanent(fmt.Errorf("%s: writing payload to sink: %w", c.proto, sink.err))
	}
	return sink.n, nil
}

// sinkWriter keeps the caller's sink apart from the wire: once the sink
// fails, later writes are swallowed as if taken, so the payload keeps
// draining and the stream stays aligned. n is what the sink took.
type sinkWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (s *sinkWriter) Write(p []byte) (int, error) {
	if s.err != nil || len(p) == 0 {
		return len(p), nil
	}
	n, err := s.w.Write(p)
	s.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	s.err = err
	return len(p), nil
}
