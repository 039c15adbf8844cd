// Fixture protocol package: Conn.Send stands in for the real blocking
// wire write banned under a mutex.
package protocol

type Conn struct{}

func (c *Conn) Send(b []byte) error { return nil }

func (c *Conn) Recv() ([]byte, error) { return nil, nil }

func (c *Conn) Close() error { return nil }
