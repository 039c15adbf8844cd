package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// EncodeRecord frames one record exactly as Append writes it to disk:
//
//	[4B length LE] [4B CRC32-IEEE of body] [body = 1B type + payload]
//
// The same framing carries the replication stream between a primary
// master and its hot standby (internal/replica), so a standby can append
// shipped bytes to its own log verbatim.
func EncodeRecord(typ uint8, payload []byte) []byte {
	return appendRecord(nil, typ, payload)
}

// appendRecord appends the framing of one record to dst, growing it at
// most once.
func appendRecord(dst []byte, typ uint8, payload []byte) []byte {
	dst = slices.Grow(dst, headerSize+1+len(payload))
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = append(dst, 0, 0, 0, 0, typ) // CRC placeholder, then the body
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+headerSize:]))
	return dst
}

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

// Next returns the next complete record.
func (s *StreamReader) Next() (Record, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		// io.EOF here is a clean boundary; a partial header is a cut.
		return Record{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n < 1 || n > MaxRecordBytes {
		return Record{}, fmt.Errorf("%w: stream record declares invalid length %d", ErrCorrupt, n)
	}
	body := make([]byte, minInt(n, streamChunk))
	off := 0
	for {
		if _, err := io.ReadFull(s.r, body[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, err
		}
		off = len(body)
		if off == n {
			break
		}
		body = append(body, make([]byte, minInt(n-off, streamChunk))...)
	}
	if sum := binary.LittleEndian.Uint32(hdr[4:]); sum != crc32.ChecksumIEEE(body) {
		return Record{}, fmt.Errorf("%w: stream record checksum mismatch", ErrCorrupt)
	}
	return Record{Type: body[0], Payload: body[1:]}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
