// Fixture worker endpoint: exhaustive-enough switch thanks to its
// default case, but it never mentions TypeOrphan.
package worker

import "cwc/internal/protocol"

func Handle(m protocol.Message) int {
	switch m.Type {
	case protocol.TypeHello:
		return 1
	case protocol.TypeResult:
		return 2
	default:
		return 0
	}
}

// Classify covers every event kind, so it needs no default.
func Classify(k protocol.EventKind) int {
	switch k {
	case protocol.EventStart:
		return 1
	case protocol.EventStop:
		return 2
	}
	return 0
}
