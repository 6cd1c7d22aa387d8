package faultinject

import (
	"net"
)

// Conn wraps c so every Read and Write first consults the injector
// under (component, "read") / (component, "write"). A nil injector
// returns c unchanged, so the wrap is free when the fault plane is off.
//
// Verdicts map onto the transport like real failures do:
//
//	delay       stall, then perform the op
//	error       fail the op; the connection stays open (the case that
//	            exposes clients leaking connections on error paths)
//	drop        close the connection and fail the op
//	corrupt     perform the op with the first payload byte flipped
//	stall-kill  stall, then close the connection and fail the op
func (in *Injector) Conn(component string, c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	return &faultConn{Conn: c, in: in, component: component}
}

type faultConn struct {
	net.Conn
	in        *Injector
	component string
}

func (c *faultConn) Read(p []byte) (int, error) {
	v := c.in.Decide(c.component, "read")
	switch v.Action {
	case ActDelay:
		c.in.sleep(v.Delay)
	case ActError:
		return 0, v.Err
	case ActDrop:
		c.Conn.Close()
		return 0, v.Err
	case ActStallKill:
		c.in.sleep(v.Delay)
		c.Conn.Close()
		return 0, v.Err
	case ActCorrupt:
		n, err := c.Conn.Read(p)
		if n > 0 {
			p[0] ^= 0xff
		}
		return n, err
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	v := c.in.Decide(c.component, "write")
	switch v.Action {
	case ActDelay:
		c.in.sleep(v.Delay)
	case ActError:
		return 0, v.Err
	case ActDrop:
		c.Conn.Close()
		return 0, v.Err
	case ActStallKill:
		c.in.sleep(v.Delay)
		c.Conn.Close()
		return 0, v.Err
	case ActCorrupt:
		// Corrupt a copy: the caller's buffer must stay intact.
		q := make([]byte, len(p))
		copy(q, p)
		if len(q) > 0 {
			q[0] ^= 0xff
		}
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}
