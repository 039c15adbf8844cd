// Fixture protocol package for the epoch analyzer: a fenced frame type
// (TypeResult) and an unfenced one (TypePing).
package protocol

type Type string

const (
	TypeWelcome    Type = "welcome"
	TypeResult     Type = "result"
	TypeFailure    Type = "failure"
	TypeCheckpoint Type = "checkpoint"
	TypePing       Type = "ping"
)

type Message struct {
	Type  Type
	Epoch int64
	Error string
}
