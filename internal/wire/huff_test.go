package wire_test

import (
	"bytes"
	"fmt"
	"math/rand"
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
	got := make([]byte, len(src))
	if err := wire.DecodeCoded(got, sec); err != nil {
		t.Fatalf("decoding what was coded: %v", err)
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

// FuzzCode: decode(code(x)) == x for every input that codes, and no byte
// string, taken as a coded section of any raw length, panics the decoder.
func FuzzCode(f *testing.F) {
	f.Add(bytes.Repeat([]byte("inventory sale\n"), 20), uint16(300))
	f.Add(fibonacci(), uint16(1000))
	f.Add(bytes.Repeat([]byte{0}, 200), uint16(200))
	f.Fuzz(func(t *testing.T, data []byte, raw uint16) {
		roundTrip(t, data)
		_ = wire.DecodeCoded(make([]byte, raw), data)
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
