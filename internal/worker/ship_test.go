package worker

import "cwc/internal/protocol"

// shipTelemetry ships the buffered span events as one frame on conn, as
// the loop and a connection's writer do between them.
func (p *Phone) shipTelemetry(conn *protocol.Conn) {
	if m, sent := p.telemetryFrame(); m != nil {
		sent(conn.Send(m))
	}
}
