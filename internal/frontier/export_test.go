package frontier

import (
	"net"
	"time"
)

// SetTimeout shortens c's fetch deadline; call it before c's first fetch.
func SetTimeout(c *Client, d time.Duration) { c.timeout = d }

// Parked counts the connections c holds for its next fetch.
func Parked(c *Client) int {
	if c.conns == nil {
		return 0
	}
	return c.conns.Parked()
}

// DialWith makes c's connections with dial instead of over TCP.
func DialWith(c *Client, dial func() net.Conn) {
	c.once.Do(c.init)
	c.conns = newPool(func(string) (net.Conn, error) { return dial(), nil })
}
