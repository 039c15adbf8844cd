package protocol

import (
	"math"
	"reflect"
	"testing"
)

// FuzzRecv feeds arbitrary bytes into the frame decoder; it must reject or
// accept without panics, hangs or unbounded allocation, and whatever it
// accepts must survive a second trip through the codec unchanged.
func FuzzRecv(f *testing.F) {
	f.Add(encodeFrame(f, &Message{Type: TypePing, Seq: 1}))
	f.Add(encodeFrame(f, &Message{Type: TypeProbe, Payload: []byte{0, 1, 2, 3}}))
	f.Add(encodeFrame(f, fullMessage(TypeAssign)))
	f.Add(encodeFrame(f, fullMessage(TypeCheckpoint)))
	f.Add(encodeFrame(f, fullMessage(TypeTelemetry)))
	f.Add(encodeFrame(f, &Message{Type: TypeAssign, JobID: 1, Params: []byte("pp"), Input: text})) // a coded input
	f.Add(encodeFrame(f, &Message{Type: TypeResult, JobID: 1, Result: text}))                      // a coded result
	f.Add(honestFrame(hdr(field(1, 0, 0)), nil))                                                   // a zero type
	f.Add(honestFrame(hdr(typePing, field(13, 0, 0x80)), nil))                                     // a truncated varint
	f.Add(honestFrame(hdr(typeAssign, input(math.MaxUint64)), []byte("1234")))                     // a section of 2^64-1
	f.Add(honestFrame(hdr(typeFailure, field(16, 2, 2, 0x10, 4)), []byte("1234")))                 // checkpoint state
	f.Add(honestFrame(hdr(typeTelemetry, field(30, 2, 2, 100, 0)), nil))                           // an event count past the header
	f.Add(rawFrame(MaxFrameSize, 3, hdr(typeAssign, field(8, 0)), nil))                            // a cut header, a huge frame
	f.Add(honestFrame(`{"type":"ping","seq":1}`, nil))                                             // a JSON header
	f.Add(oldFormatFrame(`{"type":"ping","seq":1}`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := recvBytes(data)
		if err != nil {
			return
		}
		if m.Type == "" {
			t.Fatal("decoder accepted a frame without a type")
		}
		again, err := recvBytes(encodeFrame(t, m))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("second trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}
