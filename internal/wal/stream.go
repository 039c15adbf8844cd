package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync/atomic"
)

// EncodeRecord frames one record exactly as Append writes it to disk:
//
//	[4B length LE] [4B CRC32-IEEE of body] [body = 1B type + payload]
//
// The same framing carries the replication stream between a primary
// master and its hot standby (internal/replica), so a standby can append
// shipped bytes to its own log verbatim (AppendFrame).
func EncodeRecord(typ uint8, payload []byte) []byte {
	return seal(append(make([]byte, RecordHeader, RecordHeader+len(payload)), payload...), typ)
}

// RecordHeader is the bytes a framed record holds before its payload:
// length, CRC and type.
const RecordHeader = headerSize + 1

// seal writes the header into frame's first RecordHeader bytes: the one
// place a record is framed.
func seal(frame []byte, typ uint8) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-headerSize))
	frame[headerSize] = typ
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[headerSize:]))
	return frame
}

// Frame is one sealed record in a pooled, reference-counted buffer: the
// master encodes a record into it once, its log writes it and every
// standby's writer sends it. A new Frame holds one reference, and the
// last Release returns it to the pool. Nobody writes to a sealed frame.
type Frame struct {
	b    []byte
	refs atomic.Int32
}

// The pool is up to 16 spare frames, kept across garbage collections (a
// sync.Pool drops them) so their buffers stay grown to the records the
// log writes: enough for a burst of records waiting in a standby's queue.
var spare = make(chan *Frame, 16)

const maxPooledFrame = 8 << 20 // the largest spare frame buffer

// NewFrame frames one record into a pooled Frame.
func NewFrame(typ uint8, payload []byte) *Frame {
	f, _ := EncodeFrame(typ, func(buf []byte) ([]byte, error) {
		return append(append(buf, make([]byte, RecordHeader)...), payload...), nil
	})
	return f
}

// EncodeFrame builds one record in a pooled Frame: encode appends
// RecordHeader bytes for the header, then the payload, to buf.
func EncodeFrame(typ uint8, encode func(buf []byte) ([]byte, error)) (*Frame, error) {
	var f *Frame
	select {
	case f = <-spare:
	default:
		f = new(Frame)
	}
	b, err := encode(f.b[:0])
	if err != nil {
		return nil, err
	}
	f.b = seal(b, typ)
	f.refs.Store(1)
	return f, nil
}

// Bytes is the sealed frame, valid while the caller holds a reference.
func (f *Frame) Bytes() []byte { return f.b }

// Retain adds a reference for a holder that keeps f past the call.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference; the last returns f to the pool.
func (f *Frame) Release() {
	switch n := f.refs.Add(-1); {
	case n < 0:
		panic("wal: frame released more often than retained")
	case n == 0 && cap(f.b) <= maxPooledFrame:
		select {
		case spare <- f:
		default: // enough frames are spare
		}
	}
}

// Refs counts f's outstanding references.
func (f *Frame) Refs() int32 { return f.refs.Load() }

// streamChunk caps how much Next allocates before any body byte has
// arrived: a corrupt length prefix costs at most this much, never the
// full MaxRecordBytes.
const streamChunk = 1 << 20 // 1 MiB

// StreamReader decodes the record framing incrementally from a live byte
// stream. Unlike scanRecords it never sees the whole input at once: Next
// blocks on the reader until one complete record (or an error) is
// available, which is what a replication subscriber needs.
//
// Error contract — a partial record is never surfaced:
//
//   - io.EOF: the stream ended exactly at a record boundary (clean end).
//   - io.ErrUnexpectedEOF: the stream was cut inside a record; the torn
//     record is not returned.
//   - ErrCorrupt (wrapped): an invalid declared length or a checksum
//     mismatch; the stream is unrecoverable past this point.
type StreamReader struct {
	r io.Reader
}

// NewStreamReader wraps r. The reader is consumed record by record; for
// unbuffered sources (a net.Conn) wrap it in a bufio.Reader first.
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: r} }

// Next returns the next complete record and the whole frame it came
// in, checked, for a log that keeps it verbatim (AppendFrame). The
// record's payload is a sub-slice of the frame, which is the caller's:
// each record is read into a buffer of its own.
func (s *StreamReader) Next() (Record, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		// io.EOF here is a clean boundary; a partial header is a cut.
		return Record{}, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n < 1 || n > MaxRecordBytes {
		return Record{}, nil, fmt.Errorf("%w: stream record declares invalid length %d", ErrCorrupt, n)
	}
	frame := append(make([]byte, 0, headerSize+min(n, streamChunk)), hdr[:]...)
	for len(frame) < headerSize+n {
		off := len(frame)
		k := min(headerSize+n-off, streamChunk)
		frame = slices.Grow(frame, k)[:off+k]
		if _, err := io.ReadFull(s.r, frame[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, nil, err
		}
	}
	body := frame[headerSize:]
	if sum := binary.LittleEndian.Uint32(hdr[4:]); sum != crc32.ChecksumIEEE(body) {
		return Record{}, nil, fmt.Errorf("%w: stream record checksum mismatch", ErrCorrupt)
	}
	return Record{Type: body[0], Payload: body[1:]}, frame, nil
}
