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
	"cwc/internal/wire"
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

// field is one raw header field, so a test can write any key and value:
// the key of tag with wire type wt, then val as given.
func field(tag, wt int, val ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(tag)<<3|uint64(wt)), val...)
}

// uv is v as a varint.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// hdr joins raw fields into a header.
func hdr(fields ...[]byte) string { return string(bytes.Join(fields, nil)) }

// Raw header fields: a type, by its code, and a section listing.
var (
	typeAssign    = field(1, 0, 5)
	typeFailure   = field(1, 0, 8)
	typePing      = field(1, 0, 9)
	typeTelemetry = field(1, 0, 15)
)

func params(n uint64) []byte { return field(7, 0, uv(n)...) }
func input(n uint64) []byte  { return field(8, 0, uv(n)...) }

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
	case reflect.Array:
		// The digest: fullMessage sets a real one.
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

// fullMessage returns a message of type typ with every field set. The
// fields drawn from a fixed set — the event kinds — take a member of it,
// and the digest is a real one.
func fullMessage(typ Type) *Message {
	m := new(Message)
	seed := 0
	fill(reflect.ValueOf(m).Elem(), &seed)
	m.Type = typ
	m.Digest = tasks.Digest([]byte(m.Token))
	for i := range m.Events {
		m.Events[i].Kind = EventCodes[1+i]
	}
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
	// Seven header bytes: two of type, five claiming the rest as input.
	header := hdr(typeAssign, input(MaxFrameSize-4-7))
	// Claim the frame cap, deliver the header and a handful of bytes.
	stream := rawFrame(MaxFrameSize, uint32(len(header)), header, []byte("only-this"))
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
	huge := hdr(typeAssign, input(1<<40))
	cases := []struct {
		name   string
		stream []byte
		why    string // must appear in the error
	}{
		{"frame too short for a header length", []byte{0, 0, 0, 3, '{', '{', '{'}, "no header length"},
		{"header length beyond the frame", rawFrame(4+2, 3, hdr(typePing), nil), "overruns"},
		{"header length beyond the frame cap", rawFrame(100, MaxFrameSize, hdr(typePing), nil), "overruns"},
		{"section beyond the remainder", honestFrame(hdr(typeAssign, input(11)), ten), "section 8 of 11 bytes overruns"},
		{"sections sum beyond the remainder", honestFrame(hdr(typeAssign, params(6), input(6)), ten), "section 8 of 6 bytes overruns"},
		{"huge section in a large frame", rawFrame(MaxFrameSize, uint32(len(huge)), huge, nil), "section 8"},
		{"section of 2^64-1 bytes", honestFrame(hdr(typeAssign, input(math.MaxUint64)), ten), "section 8"},
		{"resume state without a resume", honestFrame(hdr(typeAssign), ten), "after the last section"},
		{"checkpoint state without a checkpoint", honestFrame(hdr(typeFailure, field(2, 0, 20)), ten), "after the last section"},
		{"trailing bytes after the sections", honestFrame(hdr(typeAssign, input(9)), ten), "after the last section"},
		{"raw bytes without sections", honestFrame(hdr(typeAssign, field(2, 0, 2)), ten), "10 bytes after the last section"},
		{"too few sections", honestFrame(hdr(typeAssign, params(2)), ten), "8 bytes after the last section"},
		{"too many sections", honestFrame(hdr(typeAssign, params(5), input(5), field(9, 0, 1)), ten), "section 9 of 1 bytes overruns"},
		{"section not a varint", honestFrame(hdr(typeAssign, field(8, 2, 1, 10)), ten), "wire type"},
		{"header not the codec's", honestFrame(`type=ping`, nil), "decoding frame header"},
		{"empty header", honestFrame(``, nil), "missing type"},
		{"missing type", honestFrame(hdr(field(13, 0, 1)), nil), "missing type"},
		{"unknown type code", honestFrame(hdr(field(1, 0, 16)), nil), "unknown code 16"},
		{"unknown tag", honestFrame(hdr(typePing, field(40, 0, 1)), nil), "unknown tag 40"},
		{"unknown tag between known ones", honestFrame(hdr(typePing, field(12, 1, make([]byte, 8)...)), nil), "tag 12 has wire type 1"},
		{"duplicate tag", honestFrame(hdr(typePing, field(13, 0, 1), field(13, 0, 2)), nil), "tag 13 repeated"},
		{"tags out of order", honestFrame(hdr(typePing, field(13, 0, 1), field(2, 0, 2)), nil), "tag 2 after tag 13"},
		{"truncated varint", honestFrame(hdr(typePing, field(13, 0, 0x80)), nil), "truncated varint"},
		{"10-byte varint that overflows", honestFrame(hdr(typePing, field(13, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)), nil), "overflows"},
		{"over-long varint", honestFrame(hdr(typePing, field(13, 0, 0x81, 0x00)), nil), "over-long varint"},
		{"explicit zero", honestFrame(hdr(typePing, field(13, 0, 0)), nil), "holds a zero"},
		{"string length past the header", honestFrame(hdr(typeAssign, field(6, 2, 50, 'p', 'r')), nil), "length 50 past the header"},
		{"event count past the header", honestFrame(hdr(typeTelemetry, field(30, 2, 2, 100, 0)), nil), "count 100 past the header"},
		{"section tag listed twice", honestFrame(hdr(typeAssign, input(5), input(5)), ten), "tag 8 repeated"},
		// The layouts before this codec: a JSON header behind both
		// lengths, and before sections [length][JSON body].
		{"JSON-header ping", honestFrame(`{"type":"ping","seq":1}`, nil), "wire type 3"},
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

// TestRecvOldFormatFailsWithoutWaiting: a peer speaking an earlier
// layout — all-JSON, or a JSON header behind both lengths — is rejected
// from the bytes it sent: the reader must not sit waiting for the two
// gigabytes the all-JSON frame's first bytes seem to announce, nor for
// anything past the JSON header.
func TestRecvOldFormatFailsWithoutWaiting(t *testing.T) {
	for _, frame := range [][]byte{
		oldFormatFrame(`{"type":"welcome","phone_id":3,"keepalive_ms":30000}`),
		honestFrame(`{"type":"ping","seq":1}`, nil),
	} {
		client, server := net.Pipe()
		c := NewConn(server)
		go client.Write(frame) // and stays connected
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Recv(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%q: err = %v, want ErrCorrupt", frame, err)
		}
		client.Close()
		c.Close()
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

// A message the codec cannot express fails its own Send and nothing
// else: the pooled encoder it used must serve the next frame cleanly.
func TestSendEncodeErrorDoesNotPoisonThePool(t *testing.T) {
	cc := &countingConn{}
	c := NewConn(cc)
	for i := 0; i < 4; i++ {
		bad := &Message{Type: TypeTelemetry, Result: []byte("r"), Events: []WorkerEvent{{Kind: "not a kind"}}}
		if err := c.Send(bad); err == nil {
			t.Fatal("an event kind with no code encoded")
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
	e := new(wire.Codec)
	ping := &Message{Type: TypePing, Seq: 7}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := wire.Encode(e, 4, ping); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("encoding a ping allocated %.1f times, want 0", n)
	}
}

// Checkpoint state comes from a raw section or not at all: state written
// into the header, as the JSON layout once carried it, is not a second
// way in.
func TestRecvRefusesStateInHeader(t *testing.T) {
	ck := field(16, 2, 5, 0x08, 6, 0x12, 1, 'A') // offset 3, state "A" inline
	_, err := recvBytes(honestFrame(hdr(typeFailure, ck), nil))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tag 2 has wire type 2") {
		t.Fatalf("err = %v, want ErrCorrupt for the inline state", err)
	}
	got, err := recvBytes(honestFrame(hdr(typeFailure, field(16, 2, 2, 0x08, 6)), nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Offset != 3 || got.Checkpoint.State != nil {
		t.Fatalf("checkpoint = %+v, want offset 3 and no state", got.Checkpoint)
	}
}
