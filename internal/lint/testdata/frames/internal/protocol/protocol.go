// Fixture protocol package for the frames analyzer.
package protocol

// Type discriminates frames.
type Type string

const (
	TypeHello  Type = "hello"
	TypeResult Type = "result"
	TypeOrphan Type = "orphan" // want `frame type protocol\.TypeOrphan is never referenced in cwc/internal/worker`
)

// Message is the frame union.
type Message struct {
	Type Type
	N    int
}

// EventKind discriminates telemetry events.
type EventKind string

const (
	EventStart EventKind = "start"
	EventStop  EventKind = "stop"
)
