package frontier

import "time"

// SetTimeout shortens c's fetch deadline; call it before c's first fetch.
func SetTimeout(c *Client, d time.Duration) { c.timeout = d }

// Parked counts the connections c holds for its next fetch.
func Parked(c *Client) int {
	if c.conns == nil {
		return 0
	}
	return c.conns.Parked()
}
