package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// A coded section is a section's bytes under an order-0 canonical Huffman
// code:
//
//	[128 bytes: 256 code lengths, 4 bits each] [bitstream]
//
// Table byte k holds byte value 2k's code length in its low nibble and
// 2k+1's in its high one; 0 means the value does not occur. The lengths
// are at most maxCodeBits and form a complete code, whose canonical codes
// are deflate's: shorter codes first, equal lengths in byte order. The
// bitstream packs each byte's code, first bit first, from the least
// significant bit of each stream byte up; its last byte is padded with
// zero bits, and it ends there.
//
// The coder is fast by how it reads and writes that format, never by
// changing it: the encoder packs five codes into each 64-bit store, and
// the decoder's table resolves the next k bits, k from 8 to 11 as the
// section grows, to one byte or, when two whole codes fit in them, two;
// a code longer than k bits takes a second lookup. A section is byte for
// byte what a coder taking one code a step writes (the tests hold a
// reference one), so every peer and every log decodes it alike.
const (
	maxCodeBits = 11
	lensBytes   = 128
)

// huffman is one section's code: per byte value, its code bit-reversed
// for the LSB-first stream, and its length. The two are apart so the
// encoder reads each with one load and no masking.
type huffman struct {
	codes [256]uint16
	lens  [256]uint8
	bits  int // the planned section's stream length in bits
}

// plan builds the code for src and returns the coded section's size.
func (h *huffman) plan(src []byte) int {
	// Four tables, so consecutive equal bytes do not wait on each other's
	// increments.
	var hist [4][256]uint32
	s := src
	for len(s) >= 4 {
		hist[0][s[0]]++
		hist[1][s[1]]++
		hist[2][s[2]]++
		hist[3][s[3]]++
		s = s[4:]
	}
	for _, b := range s {
		hist[0][b]++
	}
	var lens [256]uint8
	var freq [256]uint64
	for v := range freq {
		freq[v] = uint64(hist[0][v]) + uint64(hist[1][v]) + uint64(hist[2][v]) + uint64(hist[3][v])
	}
	codeLengths(&freq, &lens)
	h.assign(&lens)
	h.bits = 0
	for v, f := range freq {
		h.bits += int(f) * int(lens[v])
	}
	return lensBytes + (h.bits+7)/8
}

// codeLengths sets lens to a length-limited Huffman code for the byte
// counts freq, complete whenever any byte occurs.
func codeLengths(freq *[256]uint64, lens *[256]uint8) {
	// The byte values that occur, ascending by count, then value.
	var keys [256]uint64
	n := 0
	for v, f := range freq {
		if f > 0 {
			keys[n] = f<<8 | uint64(v)
			n++
		}
	}
	switch n {
	case 0:
		return
	case 1:
		// One value alone: it and a partner that never occurs take the
		// two one-bit codes, so the code stays complete.
		v := byte(keys[0])
		lens[v], lens[v^1] = 1, 1
		return
	}
	slices.Sort(keys[:n])
	var depth [256]uint64
	for i, k := range keys[:n] {
		depth[i] = k >> 8
	}
	minRedundancy(depth[:n])
	limitLengths(depth[:n])
	for i, k := range keys[:n] {
		lens[byte(k)] = uint8(depth[i])
	}
}

// minRedundancy replaces counts sorted ascending, at least two of them,
// with their Huffman code lengths, in place (Moffat and Katajainen, "In-
// place calculation of minimum-redundancy codes", 1995). The lengths come
// out non-increasing.
func minRedundancy(a []uint64) {
	n := len(a)
	// First pass, left to right: pair the two lightest of the leaves left
	// and the internal nodes made, each internal node's weight in its
	// slot until a later node claims it, then that node's index.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Second pass, right to left: each internal node's depth.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Third pass, right to left: each leaf's depth.
	avail, used, depth := 1, 0, uint64(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}
}

// limitLengths caps non-increasing code lengths at maxCodeBits and keeps
// the code complete: every length past the cap becomes the cap, then, for
// each unit the Kraft sum is over, a longest code goes and a shorter one
// splits in two (miniz's heuristic). The longest lengths go back to the
// rarest values.
func limitLengths(lens []uint64) {
	if lens[0] <= maxCodeBits {
		return
	}
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[min(l, maxCodeBits)]++
	}
	total := 0
	for l := 1; l <= maxCodeBits; l++ {
		total += count[l] << (maxCodeBits - l)
	}
	for ; total > 1<<maxCodeBits; total-- {
		count[maxCodeBits]--
		for l := maxCodeBits - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	i := 0
	for l := maxCodeBits; l > 0; l-- {
		for ; count[l] > 0; count[l]-- {
			lens[i] = uint64(l)
			i++
		}
	}
}

// assign gives each byte value with a length its canonical code.
func (h *huffman) assign(lens *[256]uint8) {
	var count, next [maxCodeBits + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeBits; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	h.lens = *lens
	for v, l := range lens {
		h.codes[v] = 0
		if l > 0 {
			h.codes[v] = bits.Reverse16(uint16(next[l])) >> (16 - l)
			next[l]++
		}
	}
}

// encode appends the planned section for src to dst: the table, then the
// stream. Every variable shift count is masked to 63, which its value
// never exceeds, so the compiler emits a bare shift.
func (h *huffman) encode(dst, src []byte) []byte {
	for k := 0; k < lensBytes; k++ {
		dst = append(dst, h.lens[2*k]|h.lens[2*k+1]<<4)
	}
	size := (h.bits + 7) / 8
	// The stream is written a word at a time: eight bytes of room past it.
	dst = slices.Grow(dst, size+8)
	out := dst[len(dst) : len(dst)+size+8]
	var acc uint64
	var nb uint // bits in acc; at most 7 between words
	codes, lens := &h.codes, &h.lens
	// put adds the codes of s's first five bytes to acc (five codes of at
	// most 11 bits fit behind 7), writes acc's whole bytes out and keeps
	// the rest.
	put := func(s []byte) {
		s = s[:5:5]
		acc |= uint64(codes[s[0]]) << (nb & 63)
		nb += uint(lens[s[0]])
		acc |= uint64(codes[s[1]]) << (nb & 63)
		nb += uint(lens[s[1]])
		acc |= uint64(codes[s[2]]) << (nb & 63)
		nb += uint(lens[s[2]])
		acc |= uint64(codes[s[3]]) << (nb & 63)
		nb += uint(lens[s[3]])
		acc |= uint64(codes[s[4]]) << (nb & 63)
		nb += uint(lens[s[4]])
		binary.LittleEndian.PutUint64(out, acc)
		k := nb >> 3
		out = out[k:]
		acc >>= k * 8 & 63
		nb &= 7
	}
	for ; len(src) >= 10; src = src[10:] {
		put(src)
		put(src[5:])
	}
	if len(src) >= 5 {
		put(src)
		src = src[5:]
	}
	for _, b := range src {
		acc |= uint64(codes[b]) << (nb & 63)
		nb += uint(lens[b])
	}
	binary.LittleEndian.PutUint64(out, acc)
	return dst[:len(dst)+size]
}

// AppendCoded appends src as a coded section to dst and reports true, or
// returns dst unchanged and false when coding would not make src smaller.
func AppendCoded(dst, src []byte) ([]byte, bool) {
	var h huffman
	if len(src) <= lensBytes || h.plan(src) >= len(src) {
		return dst, false
	}
	return h.encode(dst, src), true
}

// errCode is a coded section that does not decode.
var errCode = errors.New("wire: corrupt coded section")

// decoder is DecodeCoded's tables, and where it is in the stream.
type decoder struct {
	h      huffman
	single [1 << (maxCodeBits - 1)]uint16
	// The first level's 2^k entries, then the second level's blocks, one
	// per k-bit prefix of longer codes, each 2^(11-k) entries. The blocks
	// take 2^11 entries per unit of Kraft sum the longer codes hold, and
	// 256 codes of at least k+1 bits hold at most 2^(7-k): with k from 8
	// to 10 the two levels take at most 2^k + 2^(18-k) <= 2^11 entries,
	// and at k = 11 there are no blocks.
	table [1 << maxCodeBits]uint32
	mask  uint64 // the first level's, 2^k-1

	// The stream, and how far into it the decode is: acc holds the bits
	// not yet decoded, nb of them, and where it holds more above them
	// they are the stream's from byte pos on.
	stream []byte
	raw    int // the bytes it decodes to
	acc    uint64
	nb     uint
	pos    int
}

// DecodeCoded decodes the coded section sec into dst, whose length is the
// raw length. The table must hold a complete code, and the stream must
// end on the byte that holds the last code's last bit, padded with zeros.
func DecodeCoded(dst, sec []byte) error {
	var d decoder
	if err := d.init(sec, len(dst)); err != nil {
		return err
	}
	d.decode(dst)
	return d.end()
}

// checkWindow is how many bytes CheckCoded decodes at a time.
const checkWindow = 4 << 10

// CheckCoded reports whether sec decodes to raw bytes: it refuses
// exactly what DecodeCoded into a buffer of raw bytes would, and decodes
// as much, but a window at a time into a buffer of its own that it
// neither grows nor keeps. A receiver that holds a section coded checks
// it here, at no cost in memory.
func CheckCoded(sec []byte, raw int) error {
	var d decoder
	if err := d.init(sec, raw); err != nil {
		return err
	}
	var window [checkWindow]byte
	for ; raw > 0; raw -= checkWindow {
		d.decode(window[:min(raw, checkWindow)])
	}
	return d.end()
}

// init reads sec's code table and builds the tables to decode raw bytes
// from the stream behind it.
func (d *decoder) init(sec []byte, raw int) error {
	if len(sec) < lensBytes {
		return fmt.Errorf("%w: %d bytes hold no code table", errCode, len(sec))
	}
	var lens [256]uint8
	kraft := 0
	for k, b := range sec[:lensBytes] {
		lens[2*k], lens[2*k+1] = b&15, b>>4
	}
	for v, l := range lens {
		if l > maxCodeBits {
			return fmt.Errorf("%w: byte %d has a code of %d bits, over %d", errCode, v, l, maxCodeBits)
		}
		if l > 0 {
			kraft += 1 << (maxCodeBits - l)
		}
	}
	if kraft != 1<<maxCodeBits {
		return fmt.Errorf("%w: code lengths are not a complete code", errCode)
	}
	// The first lookup resolves the next k stream bits, and k grows with
	// the raw length: 2^k is about one entry per eight bytes decoded, from
	// 2^8 up to 2^11, so building the tables costs in step with the bytes
	// they decode. A code longer than k bits takes a second lookup.
	k := uint(min(max(bits.Len(uint(raw))-4, 8), maxCodeBits))
	d.build(&lens, k)
	d.mask, d.stream, d.raw = 1<<k-1, sec[lensBytes:], raw
	return nil
}

// build fills the tables for the code lens, with a first level of k bits.
func (d *decoder) build(lens *[256]uint8, k uint) {
	d.h.assign(lens)
	codes := &d.h.codes
	// single maps up to k-1 stream bits, zeros above them, to the byte
	// whose code they start with, and its length above it: the code's
	// whenever its length fits in the bits that are the stream's. Every
	// entry is written: a complete code decodes any bits.
	for v, l := range lens {
		if l > 0 {
			for j := uint(codes[v]); j < 1<<(k-1); j += 1 << l {
				d.single[j] = uint16(l)<<8 | uint16(v)
			}
		}
	}
	// The first level maps the next k stream bits to the one or two bytes
	// whose codes they hold whole: the code they start with, then the one
	// its remaining bits start with when that one fits in them too. An
	// entry holds the bits the codes take in bits 0-7, how many bytes
	// there are, 1 or 2, in bits 8-11, the first code's length in bits
	// 12-15, and the bytes, first in the low one, from bit 16. Whether the
	// second code fits is a mask, not a branch: it is as likely as not.
	//
	// k bits that start a longer code take no bits and hold no bytes; k is
	// in bits 12-15, and in bits 16-31 where the block for the bits after
	// them starts, each entry of which holds one code. Such an entry is
	// zero until the first of its codes claims the block.
	sub := maxCodeBits - k
	next := uint32(1) << k
	for v, l := range lens {
		if l == 0 {
			continue
		}
		c, one := uint(codes[v]), uint32(v)<<16|uint32(l)<<12|1<<8|uint32(l)
		if uint(l) > k {
			p := &d.table[c&(1<<k-1)]
			if *p == 0 {
				*p = next<<16 | uint32(k)<<12
				next += 1 << sub
			}
			block := d.table[*p>>16:][:1<<sub]
			for j := c >> k; j < uint(len(block)); j += 1 << (uint(l) - k) {
				block[j] = one
			}
			continue
		}
		rest := uint32(k) - uint32(l)
		for j := range uint(1) << rest {
			s := uint32(d.single[j])
			fits := (rest-s>>8)>>31 - 1 // all ones or zero
			d.table[c|j<<(l&63)] = one + (s&0xff<<24|1<<8|s>>8)&fits
		}
	}
}

// long is the entry for the code whose first k bits led to the first
// level's entry e, with the code's bits at the bottom of acc.
func (d *decoder) long(e uint32, acc uint64) uint32 {
	return d.table[e>>16+uint32(acc&(1<<maxCodeBits-1))>>(e>>12&15)]
}

// step decodes the one or two codes at the bottom of acc into dst at out
// and returns their entry. mask is the first level's.
func (d *decoder) step(dst []byte, out *int, acc *uint64, nb *uint, mask uint64) uint32 {
	e := d.table[*acc&mask]
	binary.LittleEndian.PutUint16(dst[*out:], uint16(e>>16))
	*out += int(e >> 8 & 15)
	*acc >>= e & 63
	*nb -= uint(e & 0xff)
	return e
}

// decode decodes the next len(dst) bytes into dst, through the tables
// build filled, from where the last decode left the stream.
func (d *decoder) decode(dst []byte) {
	mask := d.mask & (1<<maxCodeBits - 1) // which lets the compiler drop the lookups' bounds checks
	stream, acc, nb, pos, out := d.stream, d.acc, d.nb, d.pos, 0
	// Each lookup stores two bytes, whether or not both are its entry's:
	// five of them need ten bytes of dst left.
	for out+10 <= len(dst) && pos+8 <= len(stream) {
		// Fill acc to at least 56 bits from the next eight stream bytes;
		// the bits past nb are the next byte's, loaded again next time.
		acc |= binary.LittleEndian.Uint64(stream[pos:]) << (nb & 63)
		pos += int((63 - nb) >> 3)
		nb |= 56
		// Five lookups of at most 11 bits fit in 56, written out: looping
		// over them costs more than they do.
		e := d.step(dst, &out, &acc, &nb, mask)
		e = d.step(dst, &out, &acc, &nb, mask)
		e = d.step(dst, &out, &acc, &nb, mask)
		e = d.step(dst, &out, &acc, &nb, mask)
		e = d.step(dst, &out, &acc, &nb, mask)
		if e&0xf00 == 0 {
			// The batch stopped at the first k bits of a longer code (an
			// entry that takes no bits and writes no bytes): that code is
			// the second level's, and the bits it needs are still in acc.
			e = d.long(e, acc)
			dst[out] = byte(e >> 16)
			out++
			acc >>= e & 63
			nb -= uint(e & 0xff)
		}
	}
	// The last bytes take one code a lookup: an entry's second code there
	// could be the padding's, or the next window's.
	for ; out < len(dst); out++ {
		// Past the stream's end the bits read as zeros; end refuses a
		// stream that needed them.
		for ; nb <= 56; nb += 8 {
			if pos < len(stream) {
				acc |= uint64(stream[pos]) << nb
			}
			pos++
		}
		e := d.table[acc&mask]
		if e&0xf00 == 0 {
			e = d.long(e, acc)
		}
		dst[out] = byte(e >> 16)
		l := e >> 12 & 15
		acc >>= l
		nb -= uint(l)
	}
	d.acc, d.nb, d.pos = acc, nb, pos
}

// end checks that the stream ends where the decode did: on the byte that
// holds the last code's last bit, padded with zeros.
func (d *decoder) end() error {
	used, n := d.pos*8-int(d.nb), len(d.stream)
	switch {
	case used > n*8:
		return fmt.Errorf("%w: stream of %d bytes ends before %d bytes decode", errCode, n, d.raw)
	case (used+7)/8 != n:
		return fmt.Errorf("%w: %d stream bytes after the last code", errCode, n-(used+7)/8)
	case d.acc&(1<<(n*8-used)-1) != 0:
		return fmt.Errorf("%w: non-zero bits after the last code", errCode)
	}
	return nil
}
