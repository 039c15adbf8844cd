package protocol

import (
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
	f.Add(honestFrame(`{"type":""}`, nil))
	f.Add(honestFrame(`{`, nil))
	f.Add(honestFrame(`{"type":"assign","sections":[0,0,-1,0,0,5]}`, []byte("1234")))
	f.Add(honestFrame(`{"type":"failure","sections":[0,0,0,0,0,4]}`, []byte("1234")))
	f.Add(rawFrame(MaxFrameSize, 8, `{"type":`, nil))
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
