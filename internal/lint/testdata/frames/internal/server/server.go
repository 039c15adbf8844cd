// Fixture server endpoint: a non-exhaustive switch with no default, an
// untyped frame literal, and a suppressed one.
package server

import "cwc/internal/protocol"

func Dispatch(m protocol.Message) int {
	switch m.Type { // want `switch over protocol\.Type has no default case and misses: TypeOrphan`
	case protocol.TypeHello:
		return 1
	case protocol.TypeResult:
		return 2
	}
	return 0
}

// Send mentions the orphan frame so only the worker misses it.
func Send() protocol.Message {
	_ = protocol.TypeOrphan
	return protocol.Message{Type: protocol.TypeHello, N: 1}
}

func Untyped() protocol.Message {
	return protocol.Message{N: 2} // want `Message literal does not set Type`
}

func Suppressed() protocol.Message {
	//lint:ignore frames the caller fills in Type before sending
	return protocol.Message{N: 3}
}

// Fold dispatches telemetry event kinds but forgot one and has no
// default policy.
func Fold(k protocol.EventKind) int {
	switch k { // want `switch over protocol\.EventKind has no default case and misses: EventStop`
	case protocol.EventStart:
		return 1
	}
	return 0
}
