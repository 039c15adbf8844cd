package tasks

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := GenImage(7, 5, rng)
	enc, err := EncodeImage(im)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeImage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != 7 || dec.H != 5 {
		t.Fatalf("decoded %dx%d", dec.W, dec.H)
	}
	for i := range im.Pixels {
		if im.Pixels[i] != dec.Pixels[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

// encodeImageFprintf is the reference EncodeImage is pinned to: the
// encoder as first written, one fmt.Fprintf per line.
func encodeImageFprintf(im *Image) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d %d\n", im.W, im.H)
	for _, p := range im.Pixels {
		fmt.Fprintf(&buf, "%d %d %d\n", p.R, p.G, p.B)
	}
	return buf.Bytes()
}

func TestEncodeImageMatchesFprintf(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		data, err := GenImageKB(float64(seed*seed), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		im, err := DecodeImage(data)
		if err != nil {
			t.Fatal(err)
		}
		im.Pixels[0] = Pixel{0, 0, 0}
		im.Pixels[len(im.Pixels)-1] = Pixel{255, 9, 10}
		got, err := EncodeImage(im)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeImageFprintf(im); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: EncodeImage of a %dx%d image differs from the Fprintf encoding", seed, im.W, im.H)
		}
	}
}

func TestEncodeImageValidation(t *testing.T) {
	if _, err := EncodeImage(&Image{W: 2, H: 2, Pixels: make([]Pixel, 3)}); err == nil {
		t.Error("pixel count mismatch should error")
	}
	if _, err := EncodeImage(&Image{W: 0, H: 2}); err == nil {
		t.Error("zero width should error")
	}
}

func TestDecodeImageErrors(t *testing.T) {
	cases := []string{
		"",                    // empty
		"x y\n",               // bad header
		"0 5\n",               // zero dimension
		"2 1\n1 2 3\n",        // too few pixels
		"1 1\n1 2\n",          // bad pixel line
		"1 1\n300 0 0\n",      // out of range
		"1 1\n1 2 3\n4 5 6\n", // too many pixels
		"-1 5\n",              // negative dimension
	}
	for _, in := range cases {
		if _, err := DecodeImage([]byte(in)); err == nil {
			t.Errorf("input %q should fail to decode", in)
		}
	}
}

// TestDecodeImageRefusesDimensionsTheDataCannotHold: a header is refused
// before any pixel buffer is sized from it when width×height exceeds the
// input's byte count, so a short input cannot make the decoder allocate
// gigabytes, nor hand make a product that wrapped. The cases run smallest
// first: a decoder without the check fails on the 12 MB one and stops
// before it reaches the others.
func TestDecodeImageRefusesDimensionsTheDataCannotHold(t *testing.T) {
	for _, in := range []string{
		"4000000 1\n1 2 3\n",             // 12 MB of pixels, one row
		"1 4000000\n1 2 3\n",             // 12 MB of pixels, one column
		"99999 99999\n1 2 3\n",           // 30 GB of pixels
		"4294967296 4294967297\n1 2 3\n", // w*h wraps to 1<<32
		"3037000500 3037000500\n1 2 3\n", // w*h wraps negative, which make panics on
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeImage([]byte(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("DecodeImage(%q) succeeded", in)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("DecodeImage(%q) allocated %d bytes before failing, want under 1 MiB", in, n)
		}
	}
}

func TestBlurUniformImageIsFixpoint(t *testing.T) {
	im := &Image{W: 4, H: 4, Pixels: make([]Pixel, 16)}
	for i := range im.Pixels {
		im.Pixels[i] = Pixel{100, 150, 200}
	}
	enc, err := EncodeImage(im)
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	out, err := Blur{}.Process(context.Background(), enc, &ck)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeImage(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range dec.Pixels {
		if p != (Pixel{100, 150, 200}) {
			t.Fatalf("uniform image changed at pixel %d: %+v", i, p)
		}
	}
}

func TestImageAtClamps(t *testing.T) {
	im := &Image{W: 2, H: 2, Pixels: []Pixel{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}}}
	if im.At(-5, -5) != (Pixel{1, 0, 0}) {
		t.Error("top-left clamp failed")
	}
	if im.At(10, 10) != (Pixel{4, 0, 0}) {
		t.Error("bottom-right clamp failed")
	}
}

func TestGrayscaleDistance(t *testing.T) {
	a := &Image{W: 1, H: 1, Pixels: []Pixel{{10, 20, 30}}}
	b := &Image{W: 1, H: 1, Pixels: []Pixel{{20, 20, 24}}}
	d, err := GrayscaleDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := (10.0 + 0 + 6) / 3; d != want {
		t.Errorf("distance = %v, want %v", d, want)
	}
	if _, err := GrayscaleDistance(a, &Image{W: 2, H: 1, Pixels: make([]Pixel, 2)}); err == nil {
		t.Error("size mismatch should error")
	}
	empty := &Image{}
	if d, err := GrayscaleDistance(empty, empty); err != nil || d != 0 {
		t.Errorf("empty distance = %v, %v", d, err)
	}
}

func TestGenImageKB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, err := GenImageKB(50, rng)
	if err != nil {
		t.Fatal(err)
	}
	gotKB := float64(len(data)) / 1024
	if gotKB < 30 || gotKB > 75 {
		t.Errorf("generated image is %.1f KB, want ~50", gotKB)
	}
	if _, err := DecodeImage(data); err != nil {
		t.Fatalf("generated image does not decode: %v", err)
	}
	tiny, err := GenImageKB(0.001, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImage(tiny); err != nil {
		t.Fatalf("tiny image does not decode: %v", err)
	}
}

func TestGenInputSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ints := GenIntegers(100, 1000, rng)
	if kb := float64(len(ints)) / 1024; kb < 99 || kb > 102 {
		t.Errorf("integers input %.1f KB, want ~100", kb)
	}
	text := GenText(100, rng)
	if kb := float64(len(text)) / 1024; kb < 99 || kb > 102 {
		t.Errorf("text input %.1f KB, want ~100", kb)
	}
	if !strings.Contains(string(text), " ") {
		t.Error("text input has no spaces")
	}
}
