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
const (
	maxCodeBits = 11
	lensBytes   = 128
)

// huffman is one section's code: per byte value, its code bit-reversed
// for the LSB-first stream in the low 16 bits and its length above them.
type huffman struct {
	enc  [256]uint32
	bits int // the planned section's stream length in bits
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
	for v, l := range lens {
		h.enc[v] = 0
		if l > 0 {
			h.enc[v] = uint32(l)<<16 | uint32(bits.Reverse16(uint16(next[l]))>>(16-l))
			next[l]++
		}
	}
}

// encode appends the planned section for src to dst: the table, then the
// stream.
func (h *huffman) encode(dst, src []byte) []byte {
	for k := 0; k < lensBytes; k++ {
		dst = append(dst, byte(h.enc[2*k]>>16|h.enc[2*k+1]>>16<<4))
	}
	size := (h.bits + 7) / 8
	// The stream is written a word at a time: eight bytes of room past it.
	dst = slices.Grow(dst, size+8)
	out := dst[len(dst) : len(dst)+size+8]
	var acc uint64
	var nb uint // bits in acc; at most 7 between words
	pos := 0
	enc := &h.enc
	for len(src) >= 5 { // five codes of at most 11 bits fit behind 7
		for _, b := range src[:5] {
			e := enc[b]
			acc |= uint64(e&0xffff) << nb
			nb += uint(e >> 16)
		}
		binary.LittleEndian.PutUint64(out[pos:], acc)
		k := nb >> 3
		pos += int(k)
		acc >>= k * 8
		nb &= 7
		src = src[5:]
	}
	for _, b := range src {
		e := enc[b]
		acc |= uint64(e&0xffff) << nb
		nb += uint(e >> 16)
	}
	binary.LittleEndian.PutUint64(out[pos:], acc)
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

// DecodeCoded decodes the coded section sec into dst, whose length is the
// raw length. The table must hold a complete code, and the stream must
// end on the byte that holds the last code's last bit, padded with zeros.
func DecodeCoded(dst, sec []byte) error {
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
	var h huffman
	h.assign(&lens)
	// table maps the next maxCodeBits stream bits to the byte whose code
	// they start with, and that code's length above it.
	var table [1 << maxCodeBits]uint16
	for v, e := range h.enc {
		if l := e >> 16; l > 0 {
			for j := e & 0xffff; j < 1<<maxCodeBits; j += 1 << l {
				table[j] = uint16(l)<<8 | uint16(v)
			}
		}
	}
	const mask = 1<<maxCodeBits - 1
	stream := sec[lensBytes:]
	var acc uint64
	var nb uint // bits of acc not yet decoded
	pos, out := 0, 0
	for out+5 <= len(dst) && pos+8 <= len(stream) {
		// Fill acc to at least 56 bits from the next eight stream bytes;
		// the bits past nb are the next byte's, loaded again next time.
		acc |= binary.LittleEndian.Uint64(stream[pos:]) << nb
		pos += int((63 - nb) >> 3)
		nb |= 56
		d := dst[out : out+5 : out+5]
		for k := range d {
			e := table[acc&mask]
			d[k] = byte(e)
			acc >>= e >> 8
			nb -= uint(e >> 8)
		}
		out += 5
	}
	for ; out < len(dst); out++ {
		// Past the stream's end the bits read as zeros; the check below
		// refuses a stream that needed them.
		for ; nb <= 56; nb += 8 {
			if pos < len(stream) {
				acc |= uint64(stream[pos]) << nb
			}
			pos++
		}
		e := table[acc&mask]
		dst[out] = byte(e)
		acc >>= e >> 8
		nb -= uint(e >> 8)
	}
	used := pos*8 - int(nb)
	switch {
	case used > len(stream)*8:
		return fmt.Errorf("%w: stream of %d bytes ends before %d bytes decode", errCode, len(stream), len(dst))
	case (used+7)/8 != len(stream):
		return fmt.Errorf("%w: %d stream bytes after the last code", errCode, len(stream)-(used+7)/8)
	case acc&(1<<(len(stream)*8-used)-1) != 0:
		return fmt.Errorf("%w: non-zero bits after the last code", errCode)
	}
	return nil
}
