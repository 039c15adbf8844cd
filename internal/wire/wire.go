// Package wire is the one codec for every header the system writes: a
// protocol frame's, a WAL record's and a replication heartbeat's. A unit
// is
//
//	[4B header length, big-endian] [header] [sections]
//
// The header is protobuf's wire format, written by hand: each field is a
// varint key (tag<<3 | wire type) and a value — a varint, eight
// little-endian bytes, or a varint length and that many bytes. Signed
// integers are zigzag varints, floats their IEEE bits. A section is a
// bulk byte field kept out of the header: the header lists it as a
// varint length under its tag, and its bytes follow the header, in the
// order the header lists them, so a receiver hands them out as
// sub-slices of one buffer. One section of a unit may travel Huffman-
// coded (huff.go), when that makes it smaller; a raw-length field then
// says what it decodes to. A receiver may unpack it or hold it as it
// came (Held).
//
// A type names its fields once, in a Wire method that both encodes and
// decodes. Fields go in ascending tag order, and a zero value is written
// by omission. Decoding is strict, so every value has exactly one
// encoding: tags strictly increase, every tag is one the type names,
// with its wire type; varints are minimal and fit 64 bits; a present
// field is non-zero; and no length or count is larger than the bytes
// left to hold it.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Wire types.
const (
	wtVarint  = 0
	wtFixed64 = 1
	wtBytes   = 2
)

// zeros backs the placeholders Encode patches: a prefix and the header
// length, or a nested length's extra bytes.
var zeros [16]byte

// maxPooled is the largest buffer a Codec keeps when it returns to the
// pool, so one huge unit does not stay pinned behind later small ones.
const maxPooled = 8 << 20

// Fields is a type that names its fields, in ascending tag order,
// through the Codec's field functions, to encode and decode alike.
type Fields interface{ Wire(c *Codec) }

// Visitor is a *T that names T's fields: Opt and List make the Ts they
// decode into.
type Visitor[T any] interface {
	*T
	Fields
}

// Codec is one walk over a unit's header, encoding or decoding.
type Codec struct {
	dec  bool
	err  error
	last int       // the last tag walked in the current message
	secs []*[]byte // the sections listed so far
	lens []int     // decoding: their lengths

	buf []byte // encoding: prefix, header length and header so far
	raw int    // encoding: the sections' total length on the wire

	// The section that travels coded (nil: none), its wire length and the
	// raw length it decodes to; encoding, huff is its code. Decoding, a
	// section Coded lists is a candidate until RawLen gives its length.
	// held is the Held the coded section belongs to, if any: encoding, its
	// coded bytes are written through; decoding, they stay coded.
	coded      *[]byte
	zlen, rlen int
	huff       huffman
	held       *Held

	// Decoding: hdr[pos:end] is the current message left to read, tag and
	// wt the key of the field at pos (tag 0 at the message's end), body
	// the body bytes no section has claimed yet.
	hdr           []byte
	pos, end      int
	tag, wt, body int
}

var pool = sync.Pool{New: func() any { return new(Codec) }}

// Get returns a pooled Codec.
func Get() *Codec { return pool.Get().(*Codec) }

// Release returns c to the pool. A unit Encode returned is not valid
// after it.
func (c *Codec) Release() {
	c.hdr = nil
	if cap(c.buf) <= maxPooled {
		pool.Put(c)
	}
}

func (c *Codec) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Encode renders v as a unit behind prefix zero bytes in c's buffer and
// returns the whole, valid until c is reused.
func Encode(c *Codec, prefix int, v Fields) ([]byte, error) {
	c.dec, c.err, c.last, c.raw, c.secs = false, nil, 0, 0, c.secs[:0]
	c.coded, c.rlen, c.held = nil, 0, nil
	c.buf = append(c.buf[:0], zeros[:prefix+4]...)
	v.Wire(c)
	defer func() { // the pool must not pin the caller's message
		clear(c.secs)
		c.coded, c.held = nil, nil
	}()
	if c.coded != nil && c.rlen == 0 {
		c.failf("a coded section without a raw length")
	}
	if c.err != nil {
		return nil, c.err
	}
	binary.BigEndian.PutUint32(c.buf[prefix:], uint32(len(c.buf)-prefix-4))
	need := c.raw
	if c.coded != nil {
		need += 8 // the coder writes its stream a word at a time
	}
	c.buf = slices.Grow(c.buf, need)
	for _, s := range c.secs {
		if s == c.coded && c.held == nil {
			c.buf = c.huff.encode(c.buf, *s)
		} else {
			c.buf = append(c.buf, *s...)
		}
	}
	return c.buf, nil
}

// Expansion is how many bytes the last unit's coded section gains from
// its wire length to its raw one; 0 when no section travels coded.
func (c *Codec) Expansion() int {
	if c.rlen == 0 {
		return 0
	}
	return c.rlen - c.zlen
}

// EncodeTo is Encode building the unit in buf's storage instead of c's,
// for a caller that owns where the unit lives (a pooled WAL frame).
func EncodeTo(c *Codec, buf []byte, prefix int, v Fields) ([]byte, error) {
	own := c.buf
	c.buf = buf
	defer func() { c.buf = own }()
	return Encode(c, prefix, v)
}

// DecodeHeader decodes hdr, a unit's header whose sections must take
// exactly body bytes, into v, which must be zero. Sections then hands out
// the body.
func DecodeHeader(c *Codec, hdr []byte, body int, v Fields) error {
	c.dec, c.err, c.secs, c.lens = true, nil, c.secs[:0], c.lens[:0]
	c.hdr, c.pos, c.end, c.body = hdr, 0, 0, body
	c.coded, c.rlen, c.held = nil, 0, nil
	message(c, len(hdr), v)
	if c.err == nil && c.body != 0 {
		c.failf("%d bytes after the last section", c.body)
	}
	if c.err != nil || c.rlen == 0 {
		c.coded, c.rlen, c.held = nil, 0, nil
	}
	if c.err != nil {
		clear(c.secs)
	}
	return c.err
}

// Sections points the byte fields the last decoded header listed at
// their bytes in body, when no section travels coded. Each field's
// capacity ends with its section, so appending to one never writes into
// its neighbour.
func (c *Codec) Sections(body []byte) {
	for i, p := range c.secs {
		*p, body = body[:c.lens[i]:c.lens[i]], body[c.lens[i]:]
	}
	clear(c.secs)
}

// Unpack is Sections for a unit whose coded section must be decoded: it
// lays the sections out raw in dst, which holds len(body)+Expansion()
// bytes, and points the fields at them there.
func (c *Codec) Unpack(dst, body []byte) error {
	defer func() {
		clear(c.secs)
		c.coded, c.held = nil, nil
	}()
	for i, p := range c.secs {
		n := c.lens[i]
		d := dst[:n:n]
		if p == c.coded {
			d = dst[:c.rlen:c.rlen]
			if err := DecodeCoded(d, body[:n]); err != nil {
				return err
			}
		} else {
			copy(d, body[:n])
		}
		*p, dst, body = d, dst[len(d):], body[n:]
	}
	return nil
}

// Decode decodes a whole unit into v, which must be zero; its sections
// are sub-slices of unit, or, when one travels coded and is not held, of
// a buffer of their own.
func Decode(unit []byte, v Fields) error { return DecodeWithin(unit, v, math.MaxInt) }

// DecodeWithin is Decode for a unit that may take at most limit bytes
// decoded, coded sections raw: a larger one is refused before any buffer
// is made for it. A coded section that is held is checked (CheckCoded)
// and left coded, a sub-slice of unit like a raw one, so it costs no
// buffer at all.
func DecodeWithin(unit []byte, v Fields, limit int) error {
	if len(unit) < 4 {
		return fmt.Errorf("%d bytes have no header length", len(unit))
	}
	hlen := int64(binary.BigEndian.Uint32(unit))
	if hlen > int64(len(unit)-4) {
		return fmt.Errorf("header of %d bytes overruns its %d-byte unit", hlen, len(unit))
	}
	c := Get()
	defer c.Release()
	body := unit[4+hlen:]
	if err := DecodeHeader(c, unit[4:4+hlen], len(body), v); err != nil {
		return err
	}
	x := c.Expansion()
	switch {
	case len(unit)+x > limit:
		clear(c.secs)
		c.coded, c.held = nil, nil
		return fmt.Errorf("a %d-byte unit decodes to %d bytes, over the %d-byte limit", len(unit), len(unit)+x, limit)
	case c.held != nil:
		return c.hold(body)
	case x > 0:
		return c.Unpack(make([]byte, len(body)+x), body)
	}
	c.Sections(body)
	return nil
}

// hold is Sections for a unit whose coded section is held: the section is
// checked, then left coded in its Held.
func (c *Codec) hold(body []byte) error {
	h, at := c.held, 0
	c.held = nil
	for i, p := range c.secs {
		if p == c.coded {
			break
		}
		at += c.lens[i]
	}
	if err := CheckCoded(body[at:at+c.zlen], c.rlen); err != nil {
		clear(c.secs)
		c.coded = nil
		return err
	}
	c.Sections(body)
	h.N, c.coded = c.rlen, nil
	return nil
}

// key writes a field's key, holding the walk to ascending tags.
func (c *Codec) key(tag, wt int) {
	if tag <= c.last {
		c.failf("tag %d written after tag %d", tag, c.last)
	}
	c.last = tag
	c.buf = binary.AppendUvarint(c.buf, uint64(tag)<<3|uint64(wt))
}

// uvarint reads a minimal varint from the current message.
func (c *Codec) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.hdr[c.pos:c.end])
	switch {
	case n == 0:
		c.failf("truncated varint")
	case n < 0:
		c.failf("varint overflows 64 bits")
	case n > 1 && c.hdr[c.pos+n-1] == 0:
		c.failf("over-long varint")
	default:
		c.pos += n
		return v
	}
	return 0
}

// length reads a length or count that the current message must hold.
func (c *Codec) length(what string) int {
	v := c.uvarint()
	if left := c.end - c.pos; v > uint64(left) {
		c.failf("%s %d past the header's %d remaining bytes", what, v, left)
		return 0
	}
	return int(v)
}

// next reads the key of the field at pos.
func (c *Codec) next() {
	c.tag = 0
	if c.err != nil || c.pos == c.end {
		return
	}
	k := c.uvarint()
	tag, wt := k>>3, int(k&7)
	switch {
	case c.err != nil:
	case tag == 0 || tag > math.MaxInt32:
		c.failf("unknown tag %d", tag)
	case tag == uint64(c.last):
		c.failf("tag %d repeated", tag)
	case tag < uint64(c.last):
		c.failf("tag %d after tag %d", tag, c.last)
	case wt > wtBytes:
		c.failf("tag %d has unknown wire type %d", tag, wt)
	default:
		c.tag, c.wt, c.last = int(tag), wt, int(tag)
	}
}

// has reports whether, decoding, the field at pos is tag with wire type
// wt. A field the walk passes by is one the type does not name.
func (c *Codec) has(tag, wt int) bool {
	switch {
	case !c.dec || c.err != nil || c.tag == 0 || c.tag > tag:
		return false
	case c.tag < tag:
		c.failf("unknown tag %d", c.tag)
		return false
	case c.wt != wt:
		c.failf("tag %d has wire type %d, want %d", tag, c.wt, wt)
		return false
	}
	return true
}

// varint is a varint field: encoding, v unless it is zero; decoding, the
// value the field holds, if present.
func (c *Codec) varint(tag int, v uint64) (uint64, bool) {
	if !c.dec && v != 0 {
		c.key(tag, wtVarint)
		c.buf = binary.AppendUvarint(c.buf, v)
	}
	if !c.has(tag, wtVarint) {
		return 0, false
	}
	if v = c.uvarint(); v == 0 {
		c.failf("tag %d holds a zero", tag)
	}
	c.next()
	return v, c.err == nil
}

// bytesField is a length-delimited field: encoding, b unless it is
// empty; decoding, the bytes the field holds, if present.
func bytesField[B ~string | ~[]byte](c *Codec, tag int, b B) ([]byte, bool) {
	if !c.dec && len(b) > 0 {
		c.key(tag, wtBytes)
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(b))), b...)
	}
	if !c.has(tag, wtBytes) {
		return nil, false
	}
	n := c.length("length")
	if c.err == nil && n == 0 {
		c.failf("tag %d holds no bytes", tag)
	}
	v := c.hdr[c.pos : c.pos+n]
	c.pos += n
	c.next()
	return v, c.err == nil
}

// Uint is an unsigned varint field.
func (c *Codec) Uint(tag int, p *uint64) {
	if v, ok := c.varint(tag, *p); ok {
		*p = v
	}
}

// Int is a signed zigzag varint field.
func Int[T ~int | ~int64](c *Codec, tag int, p *T) {
	if v, ok := c.varint(tag, uint64(int64(*p)<<1)^uint64(int64(*p)>>63)); ok {
		*p = T(int64(v>>1) ^ -int64(v&1))
	}
}

// Bool is a varint field that is 1 when present.
func (c *Codec) Bool(tag int, p *bool) {
	var one uint64
	if *p {
		one = 1
	}
	if v, ok := c.varint(tag, one); ok && v != 1 {
		c.failf("tag %d holds bool %d", tag, v)
	} else if ok {
		*p = true
	}
}

// Float is a fixed64 field holding the IEEE bits, so every value,
// negative zero and NaN included, survives bit-exact.
func (c *Codec) Float(tag int, p *float64) {
	if v := math.Float64bits(*p); !c.dec && v != 0 {
		c.key(tag, wtFixed64)
		c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
	}
	if !c.has(tag, wtFixed64) {
		return
	}
	if c.end-c.pos < 8 {
		c.failf("tag %d: truncated fixed64", tag)
		return
	}
	v := binary.LittleEndian.Uint64(c.hdr[c.pos:])
	if v == 0 {
		c.failf("tag %d holds a zero", tag)
	}
	*p = math.Float64frombits(v)
	c.pos += 8
	c.next()
}

// String is a length-delimited string field.
func String[T ~string](c *Codec, tag int, p *T) {
	if b, ok := bytesField(c, tag, *p); ok {
		*p = T(b)
	}
}

// Digest is a SHA-256 digest, which travels as its 32 raw bytes; the
// zero digest is absent.
func Digest[T ~[32]byte](c *Codec, tag int, p *T) {
	var n int
	if !c.dec && *p != (T{}) {
		n = len(*p)
	}
	raw := [32]byte(*p)
	if b, ok := bytesField(c, tag, raw[:n]); ok && len(b) != len(raw) {
		c.failf("tag %d: a digest of %d bytes", tag, len(b))
	} else if ok {
		*p = T(b)
	}
}

// Code is a string drawn from a fixed set, which travels as its index in
// codes; codes[0] is the empty string, written by omission.
func Code[T ~string](c *Codec, tag int, p *T, codes []T) {
	i := slices.Index(codes, *p)
	if i < 0 {
		c.failf("tag %d: %q has no code", tag, *p)
	} else if v, ok := c.varint(tag, uint64(i)); ok && v >= uint64(len(codes)) {
		c.failf("tag %d: unknown code %d", tag, v)
	} else if ok {
		*p = codes[v]
	}
}

// Section is a byte field whose bytes follow the header.
func (c *Codec) Section(tag int, p *[]byte) { c.section(tag, p, len(*p)) }

// section lists p, n bytes on the wire when encoding, and reports whether
// it is listed.
func (c *Codec) section(tag int, p *[]byte, n int) bool {
	v, ok := c.varint(tag, uint64(n))
	switch {
	case !c.dec && n > 0:
		c.secs = append(c.secs, p)
		c.raw += n
		return true
	case !ok:
	case v > uint64(c.body):
		c.failf("section %d of %d bytes overruns the %d bytes left", tag, v, c.body)
	default:
		c.secs, c.lens = append(c.secs, p), append(c.lens, int(v))
		c.body -= int(v)
		return true
	}
	return false
}

// Coded is a section that may travel Huffman-coded: when ok, and coding
// makes it smaller, its listed length is its coded one, and RawLen
// carries its raw length. A unit codes one section at most.
func (c *Codec) Coded(tag int, p *[]byte, ok bool) {
	n := len(*p)
	if !c.dec && ok && n > lensBytes {
		n = min(n, c.huff.plan(*p))
	}
	if !c.section(tag, p, n) || !ok || !c.dec && n == len(*p) {
		return
	}
	if c.coded != nil {
		c.failf("section %d: a second coded section", tag)
	}
	c.coded, c.zlen = p, n
	if c.dec {
		c.zlen = c.lens[len(c.lens)-1]
	}
}

// Held is a section a unit may carry coded, kept as the unit carried it:
// Bytes, raw when N is zero, else coded, decoding to N bytes. Decoding
// (DecodeWithin), a coded section stays coded; encoding, coded Bytes are
// written through byte for byte, and raw ones are coded as Coded codes
// them. The coder is deterministic, so both write what coding the raw
// bytes would.
type Held struct {
	Bytes []byte
	N     int
}

// Len is the section's raw length.
func (h *Held) Len() int {
	if h.N != 0 {
		return h.N
	}
	return len(h.Bytes)
}

// Raw returns the section's raw bytes: Bytes, or, coded, Bytes decoded
// into a buffer of their own.
func (h *Held) Raw() ([]byte, error) {
	if h.N == 0 {
		return h.Bytes, nil
	}
	b := make([]byte, h.N)
	if err := DecodeCoded(b, h.Bytes); err != nil {
		return nil, err
	}
	return b, nil
}

// Held is Coded for a section the unit keeps as it travels: a coded one
// is written through, or decoded coded, with RawLen still carrying its
// raw length. A unit codes one section at most.
func (c *Codec) Held(tag int, p *Held) {
	if c.dec || p.N == 0 {
		c.Coded(tag, &p.Bytes, true)
		if c.dec && c.coded == &p.Bytes {
			c.held = p
		}
		return
	}
	if !c.section(tag, &p.Bytes, len(p.Bytes)) {
		return
	}
	if c.coded != nil {
		c.failf("section %d: a second coded section", tag)
	}
	c.coded, c.zlen, c.held = &p.Bytes, len(p.Bytes), p
}

// RawLen is the raw length of the section that travels coded, absent
// when none does. A coded stream spends a bit at least on each byte, so
// the raw length is at most eight times the stream's; and coding is only
// used where it shrinks a section, so it exceeds the coded length.
func (c *Codec) RawLen(tag int) {
	var n uint64
	switch {
	case c.dec || c.coded == nil:
	case c.held != nil:
		n = uint64(c.held.N)
	default:
		n = uint64(len(*c.coded))
	}
	v, ok := c.varint(tag, n)
	switch {
	case !c.dec:
		c.rlen = int(n)
	case !ok:
	case c.coded == nil:
		c.failf("tag %d: raw length %d with no coded section", tag, v)
	case v <= uint64(c.zlen):
		c.failf("tag %d: raw length %d does not exceed the %d coded bytes", tag, v, c.zlen)
	case c.zlen < lensBytes || v > 8*uint64(c.zlen-lensBytes):
		c.failf("tag %d: raw length %d past 8 times the %d-byte coded stream", tag, v, max(c.zlen-lensBytes, 0))
	default:
		c.rlen = int(v)
	}
}

// scope is the enclosing message's state while a nested one is walked.
type scope struct{ at, end, last int }

// open starts a nested message: encoding, behind a one-byte length
// placeholder; decoding, over the n bytes at pos.
func (c *Codec) open(n int) scope {
	s := scope{len(c.buf) + 1, c.end, c.last}
	c.last = 0
	if c.dec {
		c.end = c.pos + n
		c.next()
	} else {
		c.buf = append(c.buf, 0)
	}
	return s
}

// close ends the nested message open started: encoding, its length is
// patched in; decoding, it must have been read to its end.
func (c *Codec) close(s scope) {
	c.last = s.last
	if c.dec {
		if c.err == nil && c.tag != 0 {
			c.failf("unknown tag %d", c.tag)
		}
		c.end = s.end
		return
	}
	n := len(c.buf) - s.at
	if k := (bits.Len64(uint64(n)|1) + 6) / 7; k > 1 {
		c.buf = append(c.buf, zeros[:k-1]...)
		copy(c.buf[s.at+k-1:], c.buf[s.at:s.at+n])
	}
	binary.PutUvarint(c.buf[s.at-1:], uint64(n))
}

// message walks v as a nested message of n bytes (any, when encoding).
func message(c *Codec, n int, v Fields) {
	s := c.open(n)
	v.Wire(c)
	c.close(s)
}

// Opt is a message that is present or absent: present, it is written
// even when all its fields are zero.
func Opt[T any, P Visitor[T]](c *Codec, tag int, p **T) {
	if !c.dec && *p != nil {
		c.key(tag, wtBytes)
		message(c, 0, P(*p))
	}
	if c.has(tag, wtBytes) {
		*p = new(T)
		message(c, c.length("length"), P(*p))
		c.next()
	}
}

// List is a list of messages: a count, then each message behind its
// length.
func List[T any, P Visitor[T]](c *Codec, tag int, p *[]T) {
	if !c.dec && len(*p) > 0 {
		c.key(tag, wtBytes)
		s := c.open(0)
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		for i := range *p {
			message(c, 0, P(&(*p)[i]))
		}
		c.close(s)
	}
	if !c.has(tag, wtBytes) {
		return
	}
	size := c.length("length")
	outer := c.end
	c.end = c.pos + size
	if n := c.length("count"); c.err == nil && n == 0 { // each item takes a byte at least
		c.failf("tag %d holds no items", tag)
	} else if c.err == nil {
		*p = make([]T, n)
		for i := range *p {
			message(c, c.length("item length"), P(&(*p)[i]))
		}
	}
	if c.err == nil && c.pos != c.end {
		c.failf("tag %d: %d bytes after its items", tag, c.end-c.pos)
	}
	c.end = outer
	c.next()
}
