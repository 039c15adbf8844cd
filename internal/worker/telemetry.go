package worker

import (
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// maxTelemetryEvents bounds the buffer of span events awaiting a
// shipping opportunity; beyond it new events are counted as dropped
// rather than growing without bound on a phone that cannot reach the
// master. The cumulative drop count rides every telemetry frame, so
// backpressure is visible on the master, never silent.
const maxTelemetryEvents = 256

// event mints one worker-side span event. Events land in the bounded
// telemetry buffer only when the master asked for them (the welcome's
// Telemetry flag — an unobserved master costs zero buffering and zero
// frames); independently, they feed this worker's own registry and
// black-box recorder when the embedder configured those. With neither
// a telemetry-enabled master nor local sinks the call is a mutex
// round-trip and nothing more.
func (p *Phone) event(kind protocol.EventKind, span string, job, part int, bytes int64, ms float64, detail string) {
	localSinks := p.cfg.Metrics != nil || p.cfg.Blackbox != nil
	p.mu.Lock()
	if !p.telemetry && !localSinks {
		p.mu.Unlock()
		return
	}
	ev := protocol.WorkerEvent{
		TSMs: time.Now().UnixMilli(), Kind: kind, Span: span, Job: job,
		Partition: part, Bytes: bytes, Ms: ms, Detail: detail, Epoch: p.epoch,
	}
	id := p.id
	if p.telemetry {
		if len(p.telEvents) >= maxTelemetryEvents {
			p.telDropped++
		} else {
			p.telEvents = append(p.telEvents, ev)
		}
	}
	p.mu.Unlock()
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.Counter("cwc_worker_events_total", "kind", string(kind)).Inc()
	}
	p.cfg.Blackbox.Record(obs.SpanEvent{
		TS: time.UnixMilli(ev.TSMs), Span: span, Kind: string(kind), Job: job,
		Partition: part, Phone: id, Bytes: bytes, Ms: ms, Detail: detail,
		Src: "worker", Epoch: ev.Epoch,
	})
}

// shipTelemetry flushes the buffered span events as one telemetry frame
// on conn, called opportunistically after a pong or a report so
// telemetry never costs its own connection or wakeup. A failed send
// re-buffers the batch (the connection is dying; the events will ride
// the next regime's first opportunity), evicting oldest-first against
// the bound. The frame carries no fencing epoch on purpose: telemetry
// must survive a failover — each event carries the epoch it was minted
// under instead.
func (p *Phone) shipTelemetry(conn *protocol.Conn) {
	p.mu.Lock()
	if !p.telemetry || len(p.telEvents) == 0 {
		p.mu.Unlock()
		return
	}
	batch := p.telEvents
	dropped := p.telDropped
	p.telEvents = nil
	p.mu.Unlock()
	err := conn.Send(&protocol.Message{
		Type: protocol.TypeTelemetry, Events: batch, Dropped: dropped,
	})
	if err == nil {
		return
	}
	p.mu.Lock()
	combined := append(batch, p.telEvents...)
	if over := len(combined) - maxTelemetryEvents; over > 0 {
		combined = combined[over:]
		p.telDropped += int64(over)
	}
	p.telEvents = combined
	p.mu.Unlock()
}
