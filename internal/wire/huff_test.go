package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"cwc/internal/tasks"
	"cwc/internal/wire"
)

// codedInputs are the paper's three input kinds, as the workloads
// generate them.
func codedInputs(tb testing.TB, kb float64) map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	img, err := tasks.GenImageKB(kb, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"integers": tasks.GenIntegers(kb, 1<<31, rng),
		"text":     tasks.GenText(kb, rng),
		"image":    img,
	}
}

// fibonacci is byte i repeated fib(i) times: counts so skewed that an
// unlimited Huffman code would be 24 bits deep.
func fibonacci() []byte {
	var out []byte
	a, b := 1, 1
	for i := 0; i < 25; i++ {
		out = append(out, bytes.Repeat([]byte{byte(i)}, a)...)
		a, b = b, a+b
	}
	return out
}

// refCodes, refEncode and refDecode are the section coder as it first
// shipped, one code a step each way: the reference the fast coder must
// match byte for byte. refCodes gives each byte value with a length in
// the 128-byte table its canonical code, bit-reversed for the LSB-first
// stream in the low 16 bits, and its length above them.
func refCodes(table []byte) (enc [256]uint32) {
	var lens [256]uint8
	for k, b := range table[:128] {
		lens[2*k], lens[2*k+1] = b&15, b>>4
	}
	var count, next [12]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= 11; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for v, l := range lens {
		if l > 0 {
			enc[v] = uint32(l)<<16 | uint32(bits.Reverse16(uint16(next[l]))>>(16-l))
			next[l]++
		}
	}
	return enc
}

// refEncode appends the section for src under the code table table holds
// to dst: the table, then the stream.
func refEncode(dst, table, src []byte) []byte {
	enc := refCodes(table)
	dst = append(dst, table[:128]...)
	nbits := 0
	for _, b := range src {
		nbits += int(enc[b] >> 16)
	}
	size := (nbits + 7) / 8
	dst = slices.Grow(dst, size+8)
	out := dst[len(dst) : len(dst)+size+8]
	var acc uint64
	var nb uint
	pos := 0
	for len(src) >= 5 {
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

var errRef = errors.New("reference: corrupt coded section")

// refDecode decodes the coded section sec into dst, whose length is the
// raw length, one byte a table lookup.
func refDecode(dst, sec []byte) error {
	if len(sec) < 128 {
		return errRef
	}
	kraft := 0
	for _, b := range sec[:128] {
		for _, l := range [2]byte{b & 15, b >> 4} {
			if l > 11 {
				return errRef
			}
			if l > 0 {
				kraft += 1 << (11 - l)
			}
		}
	}
	if kraft != 1<<11 {
		return errRef
	}
	var table [1 << 11]uint16
	for v, e := range refCodes(sec) {
		if l := e >> 16; l > 0 {
			for j := e & 0xffff; j < 1<<11; j += 1 << l {
				table[j] = uint16(l)<<8 | uint16(v)
			}
		}
	}
	const mask = 1<<11 - 1
	stream := sec[128:]
	var acc uint64
	var nb uint
	pos, out := 0, 0
	for out+5 <= len(dst) && pos+8 <= len(stream) {
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
	if used > len(stream)*8 || (used+7)/8 != len(stream) || acc&(1<<(len(stream)*8-used)-1) != 0 {
		return errRef
	}
	return nil
}

// sameDecode fails t unless DecodeCoded and refDecode both refuse sec as
// a section of raw bytes, or both accept it and decode the same bytes;
// and unless CheckCoded refuses it with DecodeCoded's error, or takes it.
func sameDecode(t *testing.T, sec []byte, raw int) {
	t.Helper()
	got, want := make([]byte, raw), make([]byte, raw)
	err, refErr := wire.DecodeCoded(got, sec), refDecode(want, sec)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("a %d-byte section as %d raw bytes: err = %v, the reference's = %v", len(sec), raw, err, refErr)
	}
	if checkErr := wire.CheckCoded(sec, raw); fmt.Sprint(checkErr) != fmt.Sprint(err) {
		t.Fatalf("a %d-byte section as %d raw bytes: CheckCoded says %v, DecodeCoded %v", len(sec), raw, checkErr, err)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("a %d-byte section as %d raw bytes decodes unlike the reference", len(sec), raw)
	}
}

// roundTrip codes src and decodes it back, reporting whether it was coded.
func roundTrip(t *testing.T, src []byte) bool {
	t.Helper()
	sec, ok := wire.AppendCoded(nil, src)
	if !ok {
		return false
	}
	if len(sec) >= len(src) {
		t.Fatalf("a %d-byte input coded to %d bytes", len(src), len(sec))
	}
	if want := refEncode(nil, sec, src); !bytes.Equal(sec, want) {
		t.Fatal("the section differs from the reference coder's")
	}
	got := make([]byte, len(src))
	if err := wire.DecodeCoded(got, sec); err != nil {
		t.Fatalf("decoding what was coded: %v", err)
	}
	if err := wire.CheckCoded(sec, len(src)); err != nil {
		t.Fatalf("checking what was coded: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("decode(code(x)) != x")
	}
	return true
}

func TestCodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	cases := map[string]struct {
		src   []byte
		coded bool
	}{
		"one byte value":    {bytes.Repeat([]byte{'z'}, 5000), true},
		"byte value 255":    {bytes.Repeat([]byte{255}, 300), true},
		"two byte values":   {bytes.Repeat([]byte("ab"), 999), true},
		"length-limited":    {fibonacci(), true},
		"four byte values":  {bytes.Repeat([]byte(string(rune(0))+"\x01\x02\x03"), 100), true},
		"random":            {random, false},
		"table-sized input": {bytes.Repeat([]byte{'a'}, 128), false},
		"empty":             {nil, false},
	}
	for kind, src := range codedInputs(t, 64) {
		cases[kind] = struct {
			src   []byte
			coded bool
		}{src, true}
	}
	for name, tc := range cases {
		if got := roundTrip(t, tc.src); got != tc.coded {
			t.Errorf("%s: coded %v, want %v", name, got, tc.coded)
		}
	}
}

// CheckCoded decodes through a window of its own, on its stack: checking
// a section of any size allocates nothing.
func TestCheckCodedAllocatesNothing(t *testing.T) {
	src := codedInputs(t, 256)["text"]
	sec, _ := wire.AppendCoded(nil, src)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := wire.CheckCoded(sec, len(src)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("checking a %d-byte section allocated %.0f times, want 0", len(src), allocs)
	}
}

// The paper's text inputs code to about half their size.
func TestCodeRatio(t *testing.T) {
	for kind, src := range codedInputs(t, 64) {
		sec, ok := wire.AppendCoded(nil, src)
		if ratio := float64(len(sec)) / float64(len(src)); !ok || ratio > 0.6 {
			t.Errorf("%s: coded %v to %.2f of its size, want at most 0.6", kind, ok, ratio)
		}
	}
}

func TestDecodeCodedRejects(t *testing.T) {
	src := bytes.Repeat([]byte("inventory sale\n"), 100)
	sec, ok := wire.AppendCoded(nil, src)
	if !ok {
		t.Fatal("text did not code")
	}
	with := func(edit func(s []byte) []byte) []byte {
		return edit(append([]byte(nil), sec...))
	}
	// Byte value 'a' (97) sits in the high nibble of table byte 48.
	cases := []struct {
		name string
		sec  []byte
		raw  int
		why  string
	}{
		{"no table", sec[:100], len(src), "no code table"},
		{"a code over 11 bits", with(func(s []byte) []byte { s[48] |= 0xc0; return s }), len(src), "over 11"},
		{"an incomplete code", with(func(s []byte) []byte { s['i'/2] = 0; return s }), len(src), "not a complete code"},
		{"an oversubscribed code", with(func(s []byte) []byte { s[48] |= 0x10; return s }), len(src), "not a complete code"},
		{"a stream cut short", sec[:len(sec)-8], len(src), "ends before"},
		{"a byte after the stream", append(append([]byte(nil), sec...), 0), len(src), "after the last code"},
		{"a raw length too long", sec, len(src) + 50, "ends before"},
		{"a raw length too short", sec, len(src) - 10, "after the last code"},
	}
	for _, tc := range cases {
		err := wire.DecodeCoded(make([]byte, tc.raw), tc.sec)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.why)) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.why)
		}
	}
	// 1001 z's take a one-bit code each: the stream's last byte holds one
	// bit and seven of padding.
	zs, _ := wire.AppendCoded(nil, bytes.Repeat([]byte{'z'}, 1001))
	zs[len(zs)-1] |= 0x80
	if err := wire.DecodeCoded(make([]byte, 1001), zs); err == nil || !bytes.Contains([]byte(err.Error()), []byte("non-zero bits")) {
		t.Errorf("a set padding bit: err = %v", err)
	}
}

// The fast loop decodes while ten bytes of dst are left and the stream
// holds eight more: sections whose ends fall at, just before and just
// past those edges decode at their own raw length and no other.
func TestDecodeCodedEdges(t *testing.T) {
	// Every byte value with an 8-bit code: the table is 0x88 throughout,
	// and value v's code is v itself, so its stream byte is v reversed.
	eight := bytes.Repeat([]byte{0x88}, 128)
	for _, n := range []int{8, 9, 10, 11, 19, 20, 21} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*37 + 1)
		}
		sec := append([]byte(nil), eight...)
		for _, b := range src {
			sec = append(sec, bits.Reverse8(b))
		}
		got := make([]byte, n)
		if err := wire.DecodeCoded(got, sec); err != nil || !bytes.Equal(got, src) {
			t.Errorf("%d bytes of 8-bit codes: err = %v, decoded %v, want %v", n, err, got, src)
		}
		for _, tc := range []struct {
			raw int
			why string
		}{{n - 1, "after the last code"}, {n + 1, "ends before"}} {
			err := wire.DecodeCoded(make([]byte, tc.raw), sec)
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.why)) {
				t.Errorf("%d bytes of 8-bit codes as %d: err = %v, want one mentioning %q", n, tc.raw, err, tc.why)
			}
		}
		sameDecode(t, sec, n-1)
		sameDecode(t, sec, n)
		sameDecode(t, sec, n+1)
	}
	// 1001 z's take one bit each: the last lookup's bits hold the last z
	// and a second one of padding when one byte of dst is left. The
	// decoder writes that one byte and nothing past it.
	zs, _ := wire.AppendCoded(nil, bytes.Repeat([]byte{'z'}, 1001))
	buf := make([]byte, 1002)
	buf[1001] = '!'
	if err := wire.DecodeCoded(buf[:1001], zs); err != nil || !bytes.Equal(buf[:1001], bytes.Repeat([]byte{'z'}, 1001)) || buf[1001] != '!' {
		t.Errorf("1001 one-bit codes: err = %v, byte past dst %q", err, buf[1001])
	}
	// Every shorter raw length leaves the fast loop with each count of
	// bytes left below ten, while the stream still holds plenty.
	for raw := range 1010 {
		sameDecode(t, zs, raw)
	}
	// CheckCoded decodes 4 KiB at a time: a section whose end falls just
	// before, at and just past a window's is checked as it decodes.
	zs, _ = wire.AppendCoded(nil, bytes.Repeat([]byte{'z'}, 2*4096))
	for _, raw := range []int{4095, 4096, 4097, 8183, 8191, 8192, 8193} {
		sameDecode(t, zs, raw)
	}
}

// FuzzCode: decode(code(x)) == x for every input that codes, and its
// section is the reference coder's byte for byte. No byte string, taken
// as a coded section of any raw length, panics the decoder, and the
// decoder accepts exactly the sections the reference does, with the same
// bytes: the input itself, its own section at its own and the fuzzed raw
// length, and the input as the stream behind a valid table.
func FuzzCode(f *testing.F) {
	f.Add(bytes.Repeat([]byte("inventory sale\n"), 20), uint16(300))
	f.Add(fibonacci(), uint16(1000))
	f.Add(bytes.Repeat([]byte{0}, 200), uint16(200))
	text, _ := wire.AppendCoded(nil, bytes.Repeat([]byte("inventory sale\n"), 20))
	f.Fuzz(func(t *testing.T, data []byte, raw uint16) {
		if roundTrip(t, data) {
			sec, _ := wire.AppendCoded(nil, data)
			sameDecode(t, sec, len(data))
			sameDecode(t, sec, int(raw))
		}
		sameDecode(t, data, int(raw))
		sameDecode(t, append(text[:128:128], data...), int(raw))
	})
}

var sink []byte

func BenchmarkCode(b *testing.B) {
	for _, kb := range []float64{4, 1024} {
		for kind, src := range codedInputs(b, kb) {
			b.Run(fmt.Sprintf("%s/%gKB", kind, kb), func(b *testing.B) {
				dst := make([]byte, 0, len(src)+256)
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink, _ = wire.AppendCoded(dst[:0], src)
				}
				b.ReportMetric(float64(len(sink))/float64(len(src)), "ratio")
			})
		}
	}
}

func BenchmarkDecodeCoded(b *testing.B) {
	for _, kb := range []float64{4, 1024} {
		for kind, src := range codedInputs(b, kb) {
			b.Run(fmt.Sprintf("%s/%gKB", kind, kb), func(b *testing.B) {
				sec, _ := wire.AppendCoded(nil, src)
				dst := make([]byte, len(src))
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := wire.DecodeCoded(dst, sec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(sec))/float64(len(src)), "ratio")
			})
		}
	}
}

// BenchmarkCheckCoded is the decode replay and a standby spend on each
// section they hold coded.
func BenchmarkCheckCoded(b *testing.B) {
	for _, kb := range []float64{4, 1024} {
		for kind, src := range codedInputs(b, kb) {
			b.Run(fmt.Sprintf("%s/%gKB", kind, kb), func(b *testing.B) {
				sec, _ := wire.AppendCoded(nil, src)
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := wire.CheckCoded(sec, len(src)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
