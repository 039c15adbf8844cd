// Fixture for the epoch analyzer: fenced frames and WAL records minted
// with and without the regime counter.
package server

import "cwc/internal/protocol"

// walEpochRec is the fenced WAL record type; walNoteRec is not fenced.
type walEpochRec struct {
	Epoch int64
	N     int
}

type walNoteRec struct {
	Note string
}

func mintBad() *protocol.Message {
	return &protocol.Message{Type: protocol.TypeResult} // want `TypeResult frame minted without Epoch`
}

func mintGood(epoch int64) *protocol.Message {
	return &protocol.Message{Type: protocol.TypeResult, Epoch: epoch}
}

func mintUnfenced() *protocol.Message {
	return &protocol.Message{Type: protocol.TypePing}
}

func mintSuppressed() *protocol.Message {
	//lint:ignore epoch replay tooling reconstructs the epoch from the stream offset
	return &protocol.Message{Type: protocol.TypeResult}
}

// assignBad builds the frame field by field but never stamps the epoch.
func assignBad() *protocol.Message {
	var m protocol.Message
	m.Type = protocol.TypeResult // want `m\.Type set to fenced TypeResult but m\.Epoch is never assigned`
	m.Error = "boom"
	return &m
}

func assignGood(epoch int64) *protocol.Message {
	var m protocol.Message
	m.Type = protocol.TypeResult
	m.Epoch = epoch
	return &m
}

func recBad(n int) walEpochRec {
	return walEpochRec{N: n} // want `walEpochRec literal does not thread Epoch`
}

func recGood(epoch int64, n int) walEpochRec {
	return walEpochRec{Epoch: epoch, N: n}
}

// recPositional sets every field, Epoch included.
func recPositional(epoch int64, n int) walEpochRec {
	return walEpochRec{epoch, n}
}

func recUnfenced() walNoteRec {
	return walNoteRec{Note: "free"}
}
