package protocol

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"cwc/internal/tasks"
	"cwc/internal/wire"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// zeroFields lists the paths of the leaf fields under v that hold their
// zero value.
func zeroFields(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{path}
		}
		return zeroFields(v.Elem(), path)
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, zeroFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Slice:
		if v.Len() == 0 {
			return []string{path}
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return nil
		}
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, zeroFields(v.Index(i), path+"[]")...)
		}
		return out
	}
	if v.IsZero() {
		return []string{path}
	}
	return nil
}

// roundTrip decodes what v encodes to into a fresh value of its type.
func roundTrip[T any, P wire.Visitor[T]](t *testing.T, v P) P {
	t.Helper()
	unit, err := wire.Encode(new(wire.Codec), 0, v)
	if err != nil {
		t.Fatal(err)
	}
	got := P(new(T))
	if err := wire.Decode(unit, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCodecKeepsEveryField: a Message and a WorkerEvent with every
// exported field set to a distinct non-zero value, pointers included,
// decode to what they encode. A field added without a tag in Wire
// comes back zero, and fails here; so does a present checkpoint that
// holds nothing.
func TestCodecKeepsEveryField(t *testing.T) {
	m := fullMessage(TypeTelemetry)
	if zero := zeroFields(reflect.ValueOf(m), "Message"); len(zero) > 0 {
		t.Fatalf("fill left fields zero, so the test would not see them dropped: %v", zero)
	}
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Errorf("Message changed on the wire:\n got %+v\nwant %+v", got, m)
	}
	ev := &m.Events[1]
	if got := roundTrip(t, ev); !reflect.DeepEqual(got, ev) {
		t.Errorf("WorkerEvent changed on the wire:\n got %+v\nwant %+v", got, ev)
	}
	empty := &Message{Type: TypeFailure, Resume: &tasks.Checkpoint{}, Checkpoint: &tasks.Checkpoint{}}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, empty) {
		t.Errorf("empty checkpoints did not survive: got resume %+v, checkpoint %+v", got.Resume, got.Checkpoint)
	}
}

// wideFleetAssign and wideFleetResult are the two frames a job of the
// benchmark's wide-fleet workload costs: a 4 KB wordcount assignment and
// its report.
func wideFleetAssign() *Message {
	return &Message{Type: TypeAssign, JobID: 4321, Partition: 3, Attempt: 98765, Span: "j4321",
		Task: "wordcount", Params: tasks.WordCount{Word: "inventory"}.Params(),
		Input: bytes.Repeat([]byte("inventory sale\n"), 4096/15)}
}

func wideFleetResult() *Message {
	res := []byte("17")
	return &Message{Type: TypeResult, JobID: 4321, Partition: 3, Attempt: 98765, Span: "j4321",
		Result: res, ExecMs: 12.345, ProcessedKB: 4, Digest: tasks.Digest(res)}
}

// discardConn is a connection whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// The receive side of a wide-fleet job: each frame, read into a recycled
// buffer and a recycled Message, costs its strings and nothing else —
// the span and task name of an assign, the span of a result, whose digest
// is a value.
func TestRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const runs = 100
	for name, m := range map[string]*Message{"assign": wideFleetAssign(), "result": wideFleetResult()} {
		c := recycling(bytes.Repeat(encodeFrame(t, m), runs+1))
		allocs := testing.AllocsPerRun(runs, func() {
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			c.Recycle(got)
		})
		if allocs > 2 {
			t.Errorf("receiving a wide-fleet %s allocated %.0f times, want at most 2", name, allocs)
		}
	}
}

// The send side of a wide-fleet job allocates nothing.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := NewConn(discardConn{})
	for name, m := range map[string]*Message{"assign": wideFleetAssign(), "result": wideFleetResult()} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("sending a wide-fleet %s allocated %.0f times, want 0", name, allocs)
		}
	}
}
