package protocol

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"cwc/internal/wire"
)

// text is an input of the paper's kind: words, which code to about half.
var text = bytes.Repeat([]byte("inventory sale\n"), 100)

// rawLen is the raw-length field of a coded section.
func rawLen(n uint64) []byte { return field(32, 0, uv(n)...) }

// codedSection is src's coded section, which must code.
func codedSection(t *testing.T, src []byte) []byte {
	t.Helper()
	sec, ok := wire.AppendCoded(nil, src)
	if !ok {
		t.Fatal("the input did not code")
	}
	return sec
}

// codedAssign is an honest assign frame carrying sec as its coded input
// of raw bytes.
func codedAssign(sec []byte, raw int) []byte {
	return honestFrame(hdr(typeAssign, input(uint64(len(sec))), rawLen(uint64(raw))), sec)
}

// An assignment's input and a result travel coded and come back as sent;
// a result frame's input would not, nor a failure's.
func TestCodedSectionsRoundTrip(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeAssign, JobID: 1, Params: []byte("pp"), Input: text},
		{Type: TypeAssignChunk, JobID: 1, Input: text},
		{Type: TypeResult, JobID: 1, Result: text},
	} {
		frame := encodeFrame(t, m)
		if len(frame) >= len(text) {
			t.Errorf("%s: a %d-byte text section took a %d-byte frame", m.Type, len(text), len(frame))
		}
		got, err := recvBytes(frame)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if !bytes.Equal(got.Input, m.Input) || !bytes.Equal(got.Result, m.Result) || !bytes.Equal(got.Params, m.Params) {
			t.Errorf("%s: sections changed on the wire", m.Type)
		}
		// Decoded sections, too, end where they end.
		if cap(got.Params) != len(got.Params) {
			t.Errorf("%s: params capacity %d runs into the input", m.Type, cap(got.Params))
		}
	}
	for _, m := range []*Message{
		{Type: TypeResult, Input: text},
		{Type: TypeFailure, Result: text},
		{Type: TypeCheckpoint, Params: text},
	} {
		if frame := encodeFrame(t, m); !bytes.Contains(frame, text) {
			t.Errorf("%s: a section that is not coded for its type was coded", m.Type)
		}
	}
}

// Probes stay raw, so b_i stays ms per wire KB; and a section coding
// would not shrink goes out as it is.
func TestProbesAndIncompressibleSectionsTravelRaw(t *testing.T) {
	probe := &Message{Type: TypeProbe, Seq: 1, Payload: bytes.Repeat([]byte{'a'}, 4096)}
	frame := encodeFrame(t, probe)
	if !bytes.Contains(frame, probe.Payload) {
		t.Error("a probe's payload did not travel byte for byte")
	}
	random := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(random)
	frame = encodeFrame(t, &Message{Type: TypeAssign, Input: random})
	if !bytes.HasSuffix(frame, random) {
		t.Error("random input did not travel raw")
	}
	if hlen := int(frame[7]); bytes.Contains(frame[8:8+hlen], rawLen(uint64(len(random)))) {
		t.Error("a raw input carries a raw length")
	}
}

// Each hostile coded frame is corruption, and rejecting it costs no more
// than the bytes it brought.
func TestRecvHostileCodedFrames(t *testing.T) {
	sec := codedSection(t, text)
	// 1001 z's take a bit each: a 126-byte stream whose last byte has
	// seven padding bits.
	zs := codedSection(t, bytes.Repeat([]byte{'z'}, 1001))
	edit := func(s []byte, fn func(s []byte)) []byte {
		s = bytes.Clone(s)
		fn(s)
		return s
	}
	cases := []struct {
		name   string
		stream []byte
		why    string
	}{
		{"raw length past 8 times the stream", codedAssign(zs, 8*(len(zs)-128)+1), "past 8 times"},
		{"raw length within the coded bytes", codedAssign(sec, len(sec)), "does not exceed"},
		{"a coded section too short for its table", honestFrame(hdr(typeAssign, input(100), rawLen(200)), make([]byte, 100)), "past 8 times"},
		{"a code length over 11", codedAssign(edit(sec, func(s []byte) { s['a'/2] |= 0xc0 }), len(text)), "over 11"},
		{"an incomplete code", codedAssign(edit(sec, func(s []byte) { s['i'/2] = 0 }), len(text)), "not a complete code"},
		{"a stream that ends before the raw length", codedAssign(sec, len(text)+40), "ends before"},
		{"a byte after the stream", codedAssign(append(bytes.Clone(sec), 0), len(text)), "after the last code"},
		{"non-zero padding bits", codedAssign(edit(zs, func(s []byte) { s[len(s)-1] |= 0x80 }), 1001), "non-zero bits"},
		{"a raw length on a ping", honestFrame(hdr(typePing, rawLen(300)), nil), "no coded section"},
		{"a raw length on a failure's input", honestFrame(hdr(typeFailure, input(uint64(len(sec))), rawLen(uint64(len(text)))), sec), "no coded section"},
		{"a raw length with no input", honestFrame(hdr(typeAssign, params(2), rawLen(300)), []byte("pp")), "no coded section"},
		{"a raw length decoding past the frame limit", rawFrame(MaxFrameSize, 14, hdr(typeAssign, input(MaxFrameSize-18), rawLen(MaxFrameSize+1)), nil), "over the limit"},
	}
	for _, tc := range cases {
		c := connOver(tc.stream)
		var err error
		got := allocatedBy(func() { _, err = c.Recv() })
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt mentioning %q", tc.name, err, tc.why)
		}
		if limit := uint64(8<<10 + 2*len(tc.stream)); got > limit {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", tc.name, len(tc.stream), got)
		}
	}
}

// A declared raw length commits nothing before the coded bytes it is
// eight times at most have landed: a frame that claims 100 MiB coded to
// 200 MiB and delivers a few bytes costs what readN's guard allows.
func TestRecvHostileRawLength(t *testing.T) {
	header := hdr(typeAssign, input(100<<20), rawLen(200<<20))
	c := connOver(rawFrame(uint32(4+len(header)+100<<20), uint32(len(header)), header, []byte("only-this")))
	var err error
	got := allocatedBy(func() { _, err = c.Recv() })
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err %v, want a truncation error", err)
	}
	if got > 2*recvChunk {
		t.Fatalf("a 200 MiB raw length with 9 bytes delivered allocated %d bytes, want at most %d", got, 2*recvChunk)
	}
}
