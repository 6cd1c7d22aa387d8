package frontier

import (
	"net"
	"time"
)

// SetTimeout shortens c's fetch deadline; call it before c's first fetch.
func SetTimeout(c *Client, d time.Duration) {
	c.once.Do(c.init)
	c.http.SetDial(nil, d)
}

// Parked counts the connections c holds for its next fetch.
func Parked(c *Client) int {
	if c.http == nil {
		return 0
	}
	return c.http.Parked()
}

// DialWith makes c's connections with dial instead of over TCP.
func DialWith(c *Client, dial func() net.Conn) {
	c.once.Do(c.init)
	c.http.SetDial(func(string) (net.Conn, error) { return dial(), nil }, 0)
}
