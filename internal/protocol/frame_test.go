package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cwc/internal/tasks"
)

// countingConn counts Write calls; the fault layer treats one Write as
// one frame, so Send must emit prefix, header and sections in a single
// call.
type countingConn struct {
	net.Conn
	writes int
	buf    bytes.Buffer
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	return c.buf.Write(b)
}

func (c *countingConn) Close() error                       { return nil }
func (c *countingConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(t time.Time) error { return nil }

// byteConn is the read side of a connection that delivers exactly data
// and then EOF: a peer that died after sending it.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *byteConn) Close() error               { return nil }

// connOver is the receiving end of a stream that holds data and ends.
func connOver(data []byte) *Conn { return NewConn(&byteConn{r: bytes.NewReader(data)}) }

// recvBytes decodes one frame from a stream that holds data and ends.
func recvBytes(data []byte) (*Message, error) { return connOver(data).Recv() }

// encodeFrame returns the bytes Send puts on the wire for m.
func encodeFrame(t testing.TB, m *Message) []byte {
	t.Helper()
	cc := &countingConn{}
	if err := NewConn(cc).Send(m); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), cc.buf.Bytes()...)
}

// rawFrame hand-builds a frame, so each length can lie independently of
// what follows it.
func rawFrame(n, hlen uint32, header string, body []byte) []byte {
	f := make([]byte, 8, 8+len(header)+len(body))
	binary.BigEndian.PutUint32(f, n)
	binary.BigEndian.PutUint32(f[4:], hlen)
	return append(append(f, header...), body...)
}

// honestFrame is rawFrame with both lengths telling the truth.
func honestFrame(header string, body []byte) []byte {
	return rawFrame(uint32(4+len(header)+len(body)), uint32(len(header)), header, body)
}

// oldFormatFrame builds a frame in the layout that preceded raw
// sections: a length prefix and an all-JSON body.
func oldFormatFrame(body string) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(f, body...)
}

// allocatedBy reports the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var allTypes = []Type{
	TypeHello, TypeWelcome, TypeProbe, TypeProbeAck, TypeAssign,
	TypeAssignChunk, TypeResult, TypeFailure, TypePing, TypePong, TypeBye,
	TypeCheckpoint, TypeCheckpointAck, TypeDrain, TypeTelemetry,
}

// fill sets every field under v to a non-zero value, by reflection, so a
// field added to Message later is covered without touching this test.
func fill(v reflect.Value, seed *int) {
	*seed++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d<\"\n", *seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*seed))
	case reflect.Uint64:
		v.SetUint(uint64(*seed))
	case reflect.Float64:
		v.SetFloat(float64(*seed) + 0.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), seed)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			// Bytes that are neither valid JSON nor valid UTF-8.
			v.SetBytes(bytes.Repeat([]byte{0xff, '"', 0x00, byte(*seed)}, *seed))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed)
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// fullMessage returns a message of type typ with every field set.
func fullMessage(typ Type) *Message {
	m := new(Message)
	seed := 0
	fill(reflect.ValueOf(m).Elem(), &seed)
	m.Type = typ
	return m
}

// normalized returns m with empty byte fields as nil: the wire does not
// distinguish the two (a zero-length section decodes to nil).
func normalized(m *Message) *Message {
	out := *m
	for _, f := range []*[]byte{&out.Payload, &out.Params, &out.Input, &out.Result} {
		if len(*f) == 0 {
			*f = nil
		}
	}
	for _, ck := range []**tasks.Checkpoint{&out.Resume, &out.Checkpoint} {
		if *ck != nil {
			c := **ck
			if len(c.State) == 0 {
				c.State = nil
			}
			*ck = &c
		}
	}
	return &out
}

// TestRoundTripEveryTypeAndField: for every frame type, a message with
// every field set, with the byte fields empty, and with them nil (Resume
// and Checkpoint staying non-nil with an empty State) decodes to what
// was sent.
func TestRoundTripEveryTypeAndField(t *testing.T) {
	variants := map[string]func(m *Message){
		"set": func(m *Message) {},
		"empty": func(m *Message) {
			m.Payload, m.Params, m.Input, m.Result = []byte{}, []byte{}, []byte{}, []byte{}
			m.Resume.State, m.Checkpoint.State = []byte{}, []byte{}
		},
		"nil": func(m *Message) {
			m.Payload, m.Params, m.Input, m.Result = nil, nil, nil, nil
			m.Resume.State, m.Checkpoint.State = nil, nil
		},
		"one section": func(m *Message) {
			m.Payload, m.Params, m.Input = nil, nil, nil
			m.Resume, m.Checkpoint = nil, nil
		},
		"no checkpoints": func(m *Message) { m.Resume, m.Checkpoint = nil, nil },
	}
	for _, typ := range allTypes {
		for name, mutate := range variants {
			want := fullMessage(typ)
			mutate(want)
			got, err := recvBytes(encodeFrame(t, want))
			if err != nil {
				t.Fatalf("%s/%s: %v", typ, name, err)
			}
			if !reflect.DeepEqual(normalized(got), normalized(want)) {
				t.Errorf("%s/%s: round trip changed the message\n got %+v\nwant %+v", typ, name, got, want)
			}
			if (got.Resume == nil) != (want.Resume == nil) || (got.Checkpoint == nil) != (want.Checkpoint == nil) {
				t.Errorf("%s/%s: checkpoint presence changed", typ, name)
			}
		}
	}
}

// TestRecvSectionsDoNotOverlap: a decoded byte field's capacity ends
// with its section, so appending to it cannot write into the next one.
func TestRecvSectionsDoNotOverlap(t *testing.T) {
	got, err := recvBytes(encodeFrame(t, &Message{Type: TypeAssign, Params: []byte("pp"), Input: []byte("iiii")}))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Params, "XX"...)
	if string(got.Input) != "iiii" {
		t.Fatalf("append to Params overwrote Input: %q", got.Input)
	}
}

func TestSendIsOneWrite(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypePing, Seq: 3},
		{Type: TypeAssign, JobID: 1, Params: []byte("p"), Input: []byte("input"),
			Resume: &tasks.Checkpoint{Offset: 2, State: []byte("st")}},
	} {
		cc := &countingConn{}
		c := NewConn(cc)
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		if cc.writes != 1 {
			t.Fatalf("%s: Send issued %d writes, want 1 (prefix, header and sections coalesced)", m.Type, cc.writes)
		}
		// The single write must still be a well-formed frame.
		raw := cc.buf.Bytes()
		if len(raw) < 8 {
			t.Fatalf("frame too short: %d bytes", len(raw))
		}
		if n := binary.BigEndian.Uint32(raw); int(n) != len(raw)-4 {
			t.Fatalf("length prefix %d, want %d", n, len(raw)-4)
		}
		sections := len(m.Params) + len(m.Input)
		if m.Resume != nil {
			sections += len(m.Resume.State)
		}
		if h := binary.BigEndian.Uint32(raw[4:]); int(h) != len(raw)-8-sections {
			t.Fatalf("header length %d, want %d", h, len(raw)-8-sections)
		}
		if _, err := recvBytes(raw); err != nil {
			t.Fatalf("%s: the written frame does not decode: %v", m.Type, err)
		}
	}
}

// TestRecvHostileLength sends a frame whose length prefix and section
// table claim far more data than will ever arrive: the reader must not
// allocate the claimed size up front, and must fail with a truncation
// error once the stream dries up.
func TestRecvHostileLength(t *testing.T) {
	header := fmt.Sprintf(`{"type":"assign","sections":[0,0,%d,0,0,0]}`, MaxFrameSize-4-100)
	header += string(bytes.Repeat([]byte(" "), 100-len(header)))
	// Claim the frame cap, deliver the header and a handful of bytes.
	stream := rawFrame(MaxFrameSize, 100, header, []byte("only-this"))
	c := connOver(stream)
	var err error
	got := allocatedBy(func() { _, err = c.Recv() })
	if err == nil {
		t.Fatal("hostile length prefix decoded")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err %v, want a truncation error", err)
	}
	if got > 2*recvChunk {
		t.Fatalf("a %d-byte claim with 9 bytes delivered allocated %d bytes, want at most %d", MaxFrameSize, got, 2*recvChunk)
	}
}

// TestRecvChunkedBodyGrowth drives a body larger than the initial read
// chunk through Recv to cover the incremental-growth path (two
// doublings), which must also stay within twice the frame's own size.
func TestRecvChunkedBodyGrowth(t *testing.T) {
	big := bytes.Repeat([]byte("z"), 2*recvChunk+recvChunk/2)
	frame := encodeFrame(t, &Message{Type: TypeAssign, JobID: 1, Input: big})
	c := connOver(frame)
	var got *Message
	var err error
	alloc := allocatedBy(func() { got, err = c.Recv() })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Input, big) {
		t.Fatalf("large body mangled: %d bytes, want %d", len(got.Input), len(big))
	}
	if limit := uint64(2*len(big) + recvChunk); alloc > limit {
		t.Fatalf("receiving %d bytes allocated %d, want at most %d", len(big), alloc, limit)
	}
}

// TestRecvTruncationAtEveryOffset cuts a frame with all six sections at
// every byte: each prefix must fail as an I/O error — never ErrCorrupt
// (framing was intact as far as it got) and never a short message.
func TestRecvTruncationAtEveryOffset(t *testing.T) {
	frame := encodeFrame(t, fullMessage(TypeAssign))
	if _, err := recvBytes(frame); err != nil {
		t.Fatalf("the whole frame does not decode: %v", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		m, err := recvBytes(frame[:cut])
		if err == nil || m != nil {
			t.Fatalf("cut at %d of %d: decoded %+v, err %v", cut, len(frame), m, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d of %d classified as corrupt: %v", cut, len(frame), err)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: err %v, want an EOF", cut, len(frame), err)
		}
	}
}

// TestRecvHostileFrames: lengths that disagree with the frame are
// corruption, detected from the header alone — no frame here may cost
// more than the bytes it actually delivers.
func TestRecvHostileFrames(t *testing.T) {
	ten := []byte("0123456789")
	huge := fmt.Sprintf(`{"type":"assign","sections":[0,0,%d,0,0,0]}`, int64(1)<<40)
	cases := []struct {
		name   string
		stream []byte
		why    string // must appear in the error
	}{
		{"frame too short for a header length", []byte{0, 0, 0, 3, '{', '{', '{'}, "no header length"},
		{"header length beyond the frame", rawFrame(4+15, 16, `{"type":"ping"}`, nil), "overruns"},
		{"header length beyond the frame cap", rawFrame(100, MaxFrameSize, `{"type":"ping"}`, nil), "overruns"},
		{"section beyond the remainder", honestFrame(`{"type":"assign","sections":[0,0,11,0,0,0]}`, ten), "section 2"},
		{"sections sum beyond the remainder", honestFrame(`{"type":"assign","sections":[0,6,6,0,0,0]}`, ten), "section 2"},
		{"huge section in a large frame", rawFrame(MaxFrameSize, uint32(len(huge)), huge, nil), "section 2"},
		{"negative section", honestFrame(`{"type":"assign","sections":[0,0,-1,0,0,11]}`, ten), "section 2"},
		{"resume state without a resume", honestFrame(`{"type":"assign","sections":[0,0,0,0,10,0]}`, ten), "without its checkpoint"},
		{"checkpoint state without a checkpoint", honestFrame(`{"type":"failure","sections":[0,0,0,0,0,10]}`, ten), "without its checkpoint"},
		{"trailing bytes after the sections", honestFrame(`{"type":"assign","sections":[0,0,9,0,0,0]}`, ten), "after the last section"},
		{"raw bytes without sections", honestFrame(`{"type":"assign","job_id":1}`, ten), "lists 0 sections"},
		{"too few sections", honestFrame(`{"type":"assign","sections":[0,0,10]}`, ten), "lists 3 sections"},
		{"too many sections", honestFrame(`{"type":"assign","sections":[0,0,10,0,0,0,0]}`, ten), "lists 7 sections"},
		{"sections not numbers", honestFrame(`{"type":"assign","sections":["10",0,0,0,0,0]}`, ten), "decoding frame header"},
		{"header not JSON", honestFrame(`type=ping`, nil), "decoding frame header"},
		{"empty header", honestFrame(``, nil), "decoding frame header"},
		{"missing type", honestFrame(`{"seq":1}`, nil), "missing type"},
		// The layout before raw sections: [length][JSON body].
		{"old-format hello", oldFormatFrame(`{"type":"hello","model":"HTC G2","cpu_mhz":806}`), "overruns"},
		{"old-format probe", oldFormatFrame(`{"type":"probe","payload":"AAAAAAAAAAAAAAAA"}`), "overruns"},
	}
	for _, tc := range cases {
		c := connOver(tc.stream)
		var err error
		got := allocatedBy(func() { _, err = c.Recv() })
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt mentioning %q", tc.name, err, tc.why)
		}
		if got > 8<<10 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", tc.name, len(tc.stream), got)
		}
	}
}

// TestRecvOldFormatFailsWithoutWaiting: a peer speaking the old all-JSON
// layout is rejected from its first eight bytes — the reader must not
// sit waiting for the two gigabytes those bytes seem to announce.
func TestRecvOldFormatFailsWithoutWaiting(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	c := NewConn(server)
	defer c.Close()
	go client.Write(oldFormatFrame(`{"type":"welcome","phone_id":3,"keepalive_ms":30000}`)) // and stays connected
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Recv(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestSendLeavesMessageAlone sends one message on two connections at
// once: Send must only read it (the race detector sees any write), the
// header's State-less checkpoint copies must not leak between encoders,
// and the message must be unchanged afterwards.
func TestSendLeavesMessageAlone(t *testing.T) {
	msg := fullMessage(TypeFailure)
	want := fullMessage(TypeFailure)
	const rounds = 50
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		a, b := pipePair()
		defer a.Close()
		defer b.Close()
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := a.Send(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := b.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("received %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(msg, want) {
		t.Errorf("Send changed the caller's message: %+v", msg)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- a.Send(&Message{Type: TypeResult, JobID: 2, Epoch: 7}) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", got.Epoch)
	}

	// Omitted epoch stays zero ("no epoch tracking") on the wire.
	go func() { done <- a.Send(&Message{Type: TypeResult, JobID: 3}) }()
	got, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", got.Epoch)
	}
}

// A message JSON cannot express fails its own Send and nothing else: the
// pooled encoder it used must serve the next frame cleanly.
func TestSendEncodeErrorDoesNotPoisonThePool(t *testing.T) {
	cc := &countingConn{}
	c := NewConn(cc)
	for i := 0; i < 4; i++ {
		if err := c.Send(&Message{Type: TypeResult, ExecMs: math.NaN(), Result: []byte("r")}); err == nil {
			t.Fatal("a NaN field encoded")
		}
		if cc.writes != i {
			t.Fatalf("a failed Send wrote to the connection")
		}
		if err := c.Send(&Message{Type: TypePing, Seq: 1}); err != nil {
			t.Fatalf("Send after a failed encode: %v", err)
		}
		if _, err := recvBytes(cc.buf.Bytes()); err != nil {
			t.Fatalf("frame after a failed encode does not decode: %v", err)
		}
		cc.buf.Reset()
	}
}

// The keepalive path is the one wide fleets pay per phone per period: a
// frame without raw bytes must encode without allocating. (Measured on
// one encoder, not through Send: under -race the pool drops encoders at
// random.)
func TestSmallFrameEncodesWithoutAllocating(t *testing.T) {
	e := encoders.New().(*encoder)
	ping := &Message{Type: TypePing, Seq: 7}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := e.frame(ping); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("encoding a ping allocated %.1f times, want 0", n)
	}
}

// Checkpoint state comes from a raw section or not at all: a base64
// "state" member in the header (the old encoding) is not a second way in.
func TestRecvIgnoresStateInHeader(t *testing.T) {
	got, err := recvBytes(honestFrame(`{"type":"failure","checkpoint":{"offset":3,"state":"QUJD"}}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Offset != 3 || got.Checkpoint.State != nil {
		t.Fatalf("checkpoint = %+v, want offset 3 and no state", got.Checkpoint)
	}
}
