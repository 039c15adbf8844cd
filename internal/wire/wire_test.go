package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

type kind string

var kinds = []kind{"", "alpha", "beta"}

// ckpt has a checkpoint's shape: an offset and a section.
type ckpt struct {
	Off   int64
	State []byte
}

func (k *ckpt) Wire(c *Codec) {
	Int(c, 1, &k.Off)
	c.Section(2, &k.State)
}

type item struct {
	N int
	S string
}

func (i *item) Wire(c *Codec) {
	Int(c, 1, &i.N)
	String(c, 2, &i.S)
}

// sample holds a field of every kind the codec writes.
type sample struct {
	U    uint64
	I    int64
	B    bool
	F    float64
	S    string
	K    kind
	H    [32]byte
	Sec  []byte
	Ck   *ckpt
	L    []item
	Last int
}

func (s *sample) Wire(c *Codec) {
	c.Uint(1, &s.U)
	Int(c, 2, &s.I)
	c.Bool(3, &s.B)
	c.Float(4, &s.F)
	String(c, 5, &s.S)
	Code(c, 6, &s.K, kinds)
	Digest(c, 7, &s.H)
	c.Section(8, &s.Sec)
	Opt(c, 9, &s.Ck)
	List(c, 10, &s.L)
	Int(c, 300, &s.Last) // a two-byte key
}

func full() *sample {
	return &sample{U: math.MaxUint64, I: math.MinInt64, B: true, F: math.Copysign(0, -1), S: "s",
		K: "beta", H: [32]byte(bytes.Repeat([]byte{0x0f}, 32)), Sec: []byte("sec"), Ck: &ckpt{Off: -1, State: []byte("st")},
		L: []item{{N: 1}, {S: strings.Repeat("x", 200)}}, Last: 7}
}

func encode(t testing.TB, v Fields) []byte {
	t.Helper()
	b, err := Encode(new(Codec), 0, v)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), b...)
}

// Every kind survives, bit-exact: the extremes of the integers, negative
// zero, a nested message with a section, and a list item too long for a
// one-byte length.
func TestRoundTrip(t *testing.T) {
	for _, want := range []*sample{full(), {}, {Ck: &ckpt{}}} {
		var got sample
		if err := Decode(encode(t, want), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) || math.Signbit(got.F) != math.Signbit(want.F) {
			t.Errorf("round trip changed the value:\n got %+v\nwant %+v", got, *want)
		}
	}
}

// The layout is pinned: the header length, then keys in tag order, then
// the sections in the order listed.
func TestLayout(t *testing.T) {
	got := encode(t, &sample{I: -1, S: "ab", Sec: []byte("xyz"), Ck: &ckpt{State: []byte("q")}})
	want := []byte{0, 0, 0, 12,
		0x10, 0x01, // tag 2 varint: zigzag(-1)
		0x2a, 0x02, 'a', 'b', // tag 5 bytes
		0x40, 0x03, // tag 8 section of 3
		0x4a, 0x02, 0x10, 0x01, // tag 9 message: tag 2 section of 1
		'x', 'y', 'z', 'q'}
	if !bytes.Equal(got, want) {
		t.Fatalf("unit = % x\nwant   % x", got, want)
	}
}

// What the codec cannot write fails the encode, and names the field.
func TestEncodeErrors(t *testing.T) {
	for _, tc := range []struct {
		v   *sample
		why string
	}{
		{&sample{K: "gamma"}, `"gamma" has no code`},
	} {
		if _, err := Encode(new(Codec), 0, tc.v); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%+v: err = %v, want %q", *tc.v, err, tc.why)
		}
	}
}

// decodeUnit decodes a whole unit with c, as Decode does with a pooled
// Codec.
func decodeUnit(c *Codec, unit []byte, v Fields) (hlen int, err error) {
	if len(unit) < 4 || int64(binary.BigEndian.Uint32(unit)) > int64(len(unit)-4) {
		return 0, errShort
	}
	hlen = int(binary.BigEndian.Uint32(unit))
	body := unit[4+hlen:]
	if err := DecodeHeader(c, unit[4:4+hlen], len(body), v); err != nil {
		return hlen, err
	}
	c.Sections(body)
	return hlen, nil
}

var errShort = errors.New("no header length")

// FuzzHeaderRoundTrip: decoding arbitrary bytes never panics; whatever
// decodes re-encodes to the same bytes, so every value has one encoding;
// and decoding allocates in proportion to the header's own bytes, never
// to a length or count it claims. Each string takes its bytes rounded up
// to an allocation of at most 16 (a digest takes none), each
// list item its struct, and each item at least one header byte; a
// refused header adds its error message.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(encode(f, full()))
	f.Add(encode(f, &sample{}))
	f.Add(encode(f, &sample{Ck: &ckpt{}}))
	f.Add([]byte{0, 0, 0, 2, 0x08, 0x00})                   // an explicit zero
	f.Add([]byte{0, 0, 0, 3, 0x08, 0x81, 0x00})             // an over-long varint
	f.Add([]byte{0, 0, 0, 4, 0x08, 0x01, 0x08, 0x02})       // a repeated tag
	f.Add([]byte{0, 0, 0, 5, 0x52, 0x03, 0x64, 0x00, 0x00}) // a count past the header
	f.Add([]byte(`{"u":1}`))
	c := new(Codec)
	f.Fuzz(func(t *testing.T, unit []byte) {
		// The least of three runs: the fuzzing engine's own goroutines
		// allocate too, and the heap counters are process-wide.
		var v sample
		var hlen int
		var err error
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			v = sample{}
			runtime.ReadMemStats(&before)
			hlen, err = decodeUnit(c, unit, &v)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		limit := uint64(16*hlen + len(v.L)*int(unsafe.Sizeof(item{})) + int(unsafe.Sizeof(ckpt{})))
		if err != nil {
			limit += 256
		}
		if alloc > limit {
			t.Fatalf("decoding a %d-byte header allocated %d bytes, want at most %d", hlen, alloc, limit)
		}
		if err != nil {
			return
		}
		if again := encode(t, &v); !bytes.Equal(again, unit) {
			t.Fatalf("decoded unit re-encodes differently:\n got % x\nwant % x", again, unit)
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	v, c := full(), new(Codec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(c, 0, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	unit, c := encode(b, full()), new(Codec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var v sample
		if _, err := decodeUnit(c, unit, &v); err != nil {
			b.Fatal(err)
		}
	}
}

// record has a WAL record's shape: a section held as it travels, and its
// raw length in the last tag.
type record struct {
	ID   int
	Body Held
}

func (r *record) Wire(c *Codec) {
	Int(c, 1, &r.ID)
	c.Held(2, &r.Body)
	c.RawLen(3)
}

// A held section decodes as the unit carried it — coded when it travels
// coded, raw when it does not — a sub-slice of the unit either way, and
// encodes back to the same unit byte for byte, coded bytes written
// through; Raw gives back the raw bytes.
func TestHeldRoundTrip(t *testing.T) {
	text := bytes.Repeat([]byte("inventory sale storm\n"), 40)
	for name, raw := range map[string][]byte{"coded": text, "raw": []byte("17\n")} {
		unit := encode(t, &record{ID: 7, Body: Held{Bytes: raw}})
		var got record
		if err := Decode(unit, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if coded := name == "coded"; (got.Body.N != 0) != coded || got.Body.Len() != len(raw) {
			t.Errorf("%s: decoded %d bytes held with N %d, want it held coded %v", name, len(got.Body.Bytes), got.Body.N, coded)
		}
		if held := got.Body.Bytes; &held[0] != &unit[len(unit)-len(held)] {
			t.Errorf("%s: the held bytes are a copy, not the unit's", name)
		}
		b, err := got.Body.Raw()
		if err != nil || !bytes.Equal(b, raw) {
			t.Errorf("%s: Raw() = %q (%v)", name, b, err)
		}
		if again := encode(t, &got); !bytes.Equal(again, unit) {
			t.Errorf("%s: a held section re-encodes differently:\n got % x\nwant % x", name, again, unit)
		}
	}
}

// A held section is checked when it is decoded: a stream with a bad
// padding bit, one cut short and a table short of a complete code are
// refused there, as unpacking them would refuse them.
func TestHeldSectionCheckedAtDecode(t *testing.T) {
	unit := encode(t, &record{ID: 7, Body: Held{Bytes: bytes.Repeat([]byte{'z'}, 1001)}})
	sec := len(unit) - (128 + 126) // 1001 one-bit codes: 126 stream bytes
	cases := map[string]func(u []byte) []byte{
		"padding bit": func(u []byte) []byte { u[len(u)-1] |= 0x80; return u },
		"stream cut":  func(u []byte) []byte { return u[:len(u)-1] },
		"table":       func(u []byte) []byte { u[sec+'z'/2] = 0; return u },
	}
	for name, edit := range cases {
		bad := edit(bytes.Clone(unit))
		var held, unpacked record
		err := Decode(bad, &held)
		if err == nil {
			t.Errorf("%s: a held section that does not decode was taken", name)
		}
		// The same unit with the section not held is refused alike.
		hdr := int(binary.BigEndian.Uint32(bad))
		c := new(Codec)
		if herr := DecodeHeader(c, bad[4:4+hdr], len(bad)-4-hdr, &unpacked); herr != nil {
			if err == nil || err.Error() != herr.Error() {
				t.Errorf("%s: held err %v, header err %v", name, err, herr)
			}
			continue
		}
		body := bad[4+hdr:]
		uerr := c.Unpack(make([]byte, len(body)+c.Expansion()), body)
		if uerr == nil || err == nil || err.Error() != uerr.Error() {
			t.Errorf("%s: held err %v, unpacked err %v", name, err, uerr)
		}
	}
}
