package worker

import (
	"time"

	"cwc/internal/obs"
	"cwc/internal/protocol"
)

// maxTelemetryEvents bounds the buffer of span events awaiting a
// shipping opportunity; beyond it new events are counted as dropped, and
// the count since the last shipped frame rides the next one, so
// backpressure is visible on the master, never silent.
const maxTelemetryEvents = 256

// event mints one span event from outside the loop: the executor's
// throttle posts it there.
func (p *Phone) event(kind protocol.EventKind, span string, job, part int, bytes int64, ms float64, detail string) {
	p.post(func() { p.record(kind, span, job, part, bytes, ms, detail) })
}

// record mints one worker-side span event, stamped with the loop's clock.
// It lands in the bounded telemetry buffer only when the welcome asked
// for telemetry (an unobserved master costs zero buffering and frames),
// and in this worker's own registry and black box when configured.
func (p *Phone) record(kind protocol.EventKind, span string, job, part int, bytes int64, ms float64, detail string) {
	if !p.telemetry && p.cfg.Metrics == nil && p.cfg.Blackbox == nil {
		return
	}
	ev := protocol.WorkerEvent{
		TSMs: p.now.UnixMilli(), Kind: kind, Span: span, Job: job,
		Partition: part, Bytes: bytes, Ms: ms, Detail: detail, Epoch: p.epoch,
	}
	if p.telemetry {
		if len(p.telEvents) >= maxTelemetryEvents {
			p.telDropped++
		} else {
			p.telEvents = append(p.telEvents, ev)
		}
	}
	if p.events != nil {
		p.events[kind].Inc()
	}
	p.cfg.Blackbox.Record(obs.SpanEvent{
		TS: time.UnixMilli(ev.TSMs), Span: span, Kind: string(kind), Job: job,
		Partition: part, Phone: p.id, Bytes: bytes, Ms: ms, Detail: detail,
		Src: "worker", Epoch: ev.Epoch,
	})
}

// ship queues the buffered span events as one telemetry frame on the
// welcomed connection, after a pong or a report, so telemetry never costs
// its own connection or wakeup.
func (p *Phone) ship() {
	if l := p.link; l != nil && l.registered && !l.closed {
		if m, sent := p.telemetryFrame(); m != nil {
			p.send(m, sent)
		}
	}
}

// telemetryFrame takes the buffered span events as one telemetry frame,
// with the handler of its write's outcome: a failed write re-buffers the
// batch for the next regime, evicting oldest-first, and keeps its drop
// count. The frame carries no fencing epoch on purpose: telemetry must
// survive a failover — each event carries the epoch it was minted under.
func (p *Phone) telemetryFrame() (*protocol.Message, func(error)) {
	if !p.telemetry || len(p.telEvents) == 0 {
		return nil, nil
	}
	m := &protocol.Message{Type: protocol.TypeTelemetry, Events: p.telEvents, Dropped: p.telDropped}
	p.telEvents = nil
	return m, func(err error) {
		if err == nil {
			// Drops counted while the frame was on the wire ride the next
			// one (a welcome that stopped telemetry meanwhile has zeroed
			// them all).
			p.telDropped = max(0, p.telDropped-m.Dropped)
			return
		}
		combined := append(m.Events, p.telEvents...)
		if over := len(combined) - maxTelemetryEvents; over > 0 {
			combined = combined[over:]
			p.telDropped += int64(over)
		}
		p.telEvents = combined
	}
}
