package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// sizeRoom is the room SendFrame leaves in front of a message for its
// size line: the 19 digits of the largest int64, then the newline.
const sizeRoom = 20

// SendFrame sends v as one frame: a line holding the size of v's JSON
// encoding, then the encoding. It returns the size of the body it sent.
// The encoding goes into a scratch c keeps for its next frame, behind room
// for the size line, so a frame is one write and, once the scratch has
// grown to the connection's largest message, no allocation. Any failure breaks c, an encoding failure
// included: the peer is owed a message it will never get, and a peer
// waiting on it would wait forever on a connection that looks healthy.
func (c *Conn) SendFrame(v any) (int, error) {
	if err := c.Err(); err != nil {
		return 0, err
	}
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.out)
	}
	var room [sizeRoom]byte
	c.out.Reset()
	c.out.Write(room[:])
	if err := c.enc.Encode(v); err != nil {
		return 0, c.Fail(fmt.Errorf("%s: encoding message: %w", c.proto, err))
	}
	b := c.out.Bytes()
	b = b[:len(b)-1] // Encode's newline is not part of the body
	size := strconv.AppendInt(room[:0], int64(len(b)-sizeRoom), 10)
	start := sizeRoom - 1 - len(size)
	copy(b[start:], size)
	b[sizeRoom-1] = '\n'
	if err := c.Send(b[start:]); err != nil {
		return 0, err
	}
	return len(b) - sizeRoom, nil
}

// ReadFrame reads one frame into v and returns the size of its body: a
// size line of at most max, then exactly that many bytes holding one JSON
// value, decoded through a decoder c keeps, so a message allocates only
// what v's decoding fills in. Nothing the peer sends can make it hold more than max bytes: a size
// line that outgrows the reader or is not a size — a "-1" line included,
// since no peer of a framed protocol reports an error that way — a size
// over max, and a body that is not one JSON value of exactly its size
// (cut short, or with bytes after the value) are each a *ProtocolError
// and break c.
func (c *Conn) ReadFrame(max int64, v any) (int, error) {
	if err := c.Err(); err != nil {
		return 0, err
	}
	line, err := readLine(c.R, false)
	if errors.Is(err, bufio.ErrBufferFull) {
		return 0, c.Protocol("size line longer than %d bytes", c.R.Size())
	}
	if err != nil {
		return 0, c.Fail(fmt.Errorf("%s: reading message: %w", c.proto, err))
	}
	n, err := c.ParseSize(line, max)
	if err != nil {
		return 0, err
	}
	if c.dec == nil {
		c.body.R = c.R
		c.dec = json.NewDecoder(&c.body)
	}
	c.body.N = n
	start := c.dec.InputOffset()
	if err := c.dec.Decode(v); err != nil {
		return 0, c.Protocol("bad %d-byte message: %v", n, err)
	}
	if got := c.dec.InputOffset() - start; got != n {
		return 0, c.Protocol("%d bytes after a %d-byte message", n-got, got)
	}
	return int(n), nil
}
