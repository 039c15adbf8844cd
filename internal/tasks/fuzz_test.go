package tasks

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
)

// decodeImageSscanf is the reference DecodeImage is checked against: the
// text-pixel decoder as first written, splitting lines with bytes.Split
// and scanning them with fmt.Sscanf. It refuses the same oversized
// dimensions DecodeImage does, so a fuzzed header cannot make it allocate
// gigabytes or accept a w*h that wrapped around.
func decodeImageSscanf(data []byte) (*Image, error) {
	lines := bytes.Split(data, []byte{'\n'})
	var w, h int
	if _, err := fmt.Sscanf(string(lines[0]), "%d %d", &w, &h); err != nil {
		return nil, fmt.Errorf("bad image header %q: %w", lines[0], err)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("bad image dimensions %dx%d", w, h)
	}
	if h > len(data)/w {
		return nil, fmt.Errorf("image %dx%d cannot fit in %d bytes", w, h, len(data))
	}
	im := &Image{W: w, H: h, Pixels: make([]Pixel, 0, w*h)}
	for _, line := range lines[1:] {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var r, g, b int
		if _, err := fmt.Sscanf(string(line), "%d %d %d", &r, &g, &b); err != nil {
			return nil, fmt.Errorf("bad pixel line %q: %w", line, err)
		}
		if r < 0 || r > 255 || g < 0 || g > 255 || b < 0 || b > 255 {
			return nil, fmt.Errorf("pixel %q out of 8-bit range", line)
		}
		im.Pixels = append(im.Pixels, Pixel{uint8(r), uint8(g), uint8(b)})
	}
	if len(im.Pixels) != w*h {
		return nil, fmt.Errorf("image has %d pixels, header says %d", len(im.Pixels), w*h)
	}
	return im, nil
}

func sameImage(a, b *Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pixels) != len(b.Pixels) {
		return false
	}
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeImage checks the text-pixel decoder against the fmt.Sscanf
// reference — every input decodes to the same image on both sides or
// fails on both — and that every accepted image re-encodes and re-decodes
// to the same pixels.
func FuzzDecodeImage(f *testing.F) {
	f.Add([]byte("2 2\n1 2 3\n4 5 6\n7 8 9\n10 11 12\n"))
	f.Add([]byte("1 1\n255 255 255\n"))
	f.Add([]byte("2 1\r\n1 2 3\r\n4 5 6\r\n"))
	f.Add([]byte("x"))
	f.Add([]byte(""))
	for _, line := range []string{
		"1 2 3", "1\t2 3", "+1 2 3", "01 002 3", "1 2 3x", // accepted as a pixel line
		"1+2+3", "1_0 2 3", "0x1 2 3", "1 2 99999999999999999999", // refused as a pixel line
	} {
		f.Add([]byte("1 1\n" + line + "\n"))     // as the pixel line
		f.Add([]byte(line + "\n1 2 3\n4 5 6\n")) // as the header (1x2)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := DecodeImage(data)
		ref, refErr := decodeImageSscanf(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeImage(%q) error = %v, reference error = %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !sameImage(im, ref) {
			t.Fatalf("DecodeImage(%q) = %+v, reference %+v", data, im, ref)
		}
		enc, err := EncodeImage(im)
		if err != nil {
			t.Fatalf("re-encoding accepted image: %v", err)
		}
		again, err := DecodeImage(enc)
		if err != nil {
			t.Fatalf("re-decoding encoded image: %v", err)
		}
		if !sameImage(again, im) {
			t.Fatal("round trip changed the image")
		}
	})
}

// FuzzWordCount checks WordCount.Process against counting bytes.Fields'
// words, over Unicode spaces and invalid UTF-8, and its kernel, which
// finds the word by substring search on an all-ASCII line, line by line
// against the rune scan it stands in for.
func FuzzWordCount(f *testing.F) {
	f.Add("sale", []byte("the sale\nsale  store sale\n"))
	f.Add("sale", []byte("sale\u0085sale sale\u00a0sale\u3000sale"))
	f.Add("sale", []byte("sale\vsale\fsale\rsale\r\n"))
	f.Add("sale", []byte("sale\xffsale sale\xff sale"))
	f.Add("sale", []byte("sale\xc2 sale \xc2sale sale\xc2\x85sale"))
	f.Add("\xff", []byte("\xff \xff\xff \xc2\xff"))
	f.Add(" ", []byte("a b  "))
	f.Add("aa", []byte("aaa aa a aa\taa\n"))
	f.Add("a b", []byte("a b a b\n"))
	f.Add("sale", []byte("x\x00sale sale,\vsale resale\n"))
	f.Add("café", []byte("café café\n"))
	f.Add("", []byte("sale\n"))
	f.Fuzz(func(t *testing.T, word string, input []byte) {
		for _, line := range bytes.Split(input, []byte{'\n'}) {
			if got, want := countWord(line, []byte(word)), countWordRef(line, word); got != want {
				t.Fatalf("countWord(%q, %q) = %d, the rune scan counts %d", line, word, got, want)
			}
		}
		var want int64
		for _, field := range bytes.Fields(input) {
			if string(field) == word {
				want++
			}
		}
		var ck Checkpoint
		got, err := (WordCount{Word: word}).Process(context.Background(), input, &ck)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != strconv.FormatInt(want, 10) {
			t.Fatalf("WordCount{%q} over %q = %s, bytes.Fields counts %d", word, input, got, want)
		}
	})
}

// FuzzLineInt checks the integer kernels' line parser against the
// strconv path it stands in for.
func FuzzLineInt(f *testing.F) {
	for _, s := range []string{"0", "7", "123456789012345678", "1234567890123456789", "9223372036854775807",
		"9223372036854775808", "-42", "+42", " 42\r", "", " ", "4 2", "0x1f", "00017", "\xff1"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := lineInt(line)
		want, wantErr := strconv.ParseInt(string(bytes.TrimSpace(line)), 10, 64)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("lineInt(%q) = %d, %v; strconv = %d, %v", line, got, err, want, wantErr)
		}
	})
}

// maxIntRef is the reference MaxInt.Process is checked against: the kernel
// as first written, which parses every line.
func maxIntRef(input []byte, ck *Checkpoint) ([]byte, error) {
	var st maxState
	if len(ck.State) > 0 {
		if err := json.Unmarshal(ck.State, &st); err != nil {
			return nil, fmt.Errorf("tasks: corrupt max state: %w", err)
		}
	}
	err := forEachLine(context.Background(), input, ck, nil, func(line []byte) {
		if n, err := lineInt(line); err == nil && (!st.Seen || n > st.Max) {
			st.Max, st.Seen = n, true
		}
	})
	if err != nil {
		return nil, err
	}
	if !st.Seen {
		return []byte("none"), nil
	}
	return []byte(strconv.FormatInt(st.Max, 10)), nil
}

// FuzzMaxInt checks MaxInt, which skips a line too short to beat the
// running max, against the reference that parses every line, from a
// fuzzed resume state.
func FuzzMaxInt(f *testing.F) {
	f.Add([]byte("7\n3\n9001\n14\n"), int64(0), false)
	f.Add([]byte("5\n-12\n+9\n 8\n12\r\n007\n"), int64(9), true)
	f.Add([]byte("-5\n-100\n-3\n"), int64(-4), true)
	f.Add([]byte("99\n100\n 99\n1000000000000000000\n"), int64(0), true)
	f.Add([]byte("x\n\n12a\n0\n"), int64(-9223372036854775808), true)
	f.Fuzz(func(t *testing.T, input []byte, max int64, seen bool) {
		state, _ := json.Marshal(maxState{Max: max, Seen: seen})
		got, err := (MaxInt{}).Process(context.Background(), input, &Checkpoint{State: state})
		want, wantErr := maxIntRef(input, &Checkpoint{State: state})
		if !bytes.Equal(got, want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("MaxInt from %s over %q = %q, %v; reference %q, %v", state, input, got, err, want, wantErr)
		}
	})
}

// countWordRef is the reference countWord is checked against: the kernel
// as first written, which scans every line rune by rune.
func countWordRef(line []byte, word string) int64 {
	var n int64
	for i := skipRun(line, 0, true); i < len(line); {
		end := skipRun(line, i, false)
		if string(line[i:end]) == word {
			n++
		}
		i = skipRun(line, end, true)
	}
	return n
}

// FuzzCheckpointOffsets checks counting tasks tolerate arbitrary
// checkpoint offsets/states without panicking, rejecting the invalid ones.
func FuzzCheckpointOffsets(f *testing.F) {
	f.Add(int64(0), []byte(`{"count":3}`), []byte("2\n3\n4\n"))
	f.Add(int64(-5), []byte(``), []byte("7\n"))
	f.Add(int64(9999), []byte(`{bad`), []byte("11\n13\n"))
	f.Fuzz(func(t *testing.T, offset int64, state, input []byte) {
		ck := &Checkpoint{Offset: offset, State: state}
		res, err := (PrimeCount{}).Process(context.Background(), input, ck)
		if err != nil {
			return
		}
		if len(res) == 0 {
			t.Fatal("successful run produced empty result")
		}
	})
}

// FuzzAggregateFold checks every registered breakable task against the
// master's fold of a job's partials: the first as it came, each later one
// aggregated with the accumulator, left to right. That fold must equal
// Aggregate over all of them at once, byte for byte ("none" included), as
// the associativity Breakable promises; and what Aggregate made must
// aggregate alone to itself. The partials are what a job's
// ranges report: Process over the pieces of a fuzzed split of a fuzzed
// input, and for one piece cut at a fuzzed line, PartialResult of the
// checkpoint a run interrupted there holds, then Process over the rest.
func FuzzAggregateFold(f *testing.F) {
	f.Add([]byte("2\n3\nsale\n5\n7\nsale sale\n-4\n"), []byte{4, 6, 3}, uint8(1), uint8(1))
	f.Add([]byte("x\ny\n\n"), []byte{1, 1, 1, 1}, uint8(0), uint8(2))
	f.Add([]byte("9223372036854775807\n1\nnone\n"), []byte{20, 0, 9}, uint8(2), uint8(0))
	f.Add([]byte("sale"), []byte{1}, uint8(0), uint8(0))
	breakables := map[string][]byte{"primecount": nil, "wordcount": []byte(`{"word":"sale"}`), "maxint": nil, "sleepcount": nil}
	f.Fuzz(func(t *testing.T, input, sizes []byte, piece, line uint8) {
		if len(sizes) == 0 || len(sizes) > 16 {
			return
		}
		sizesKB := make([]float64, len(sizes))
		for i, b := range sizes {
			sizesKB[i] = float64(b) / 1024 // b bytes
		}
		for name, params := range breakables {
			if name == "primecount" && longDigitRun(input) {
				continue // trial division of a 19-digit prime takes seconds
			}
			task, err := New(name, params)
			if err != nil {
				t.Fatal(err)
			}
			b := task.(Breakable)
			pieces, err := b.Split(input, sizesKB)
			if err != nil {
				return // all sizes zero
			}
			var parts [][]byte
			for i, in := range pieces {
				pr, ok := task.(PartialReporter)
				if cut := lineCut(in, int(line)); ok && i == int(piece)%len(pieces) && cut > 0 {
					partial, err := pr.PartialResult(interruptedState(t, task, in[:cut]))
					if err != nil {
						t.Fatalf("%s: partial result: %v", name, err)
					}
					parts, in = append(parts, partial), in[cut:]
				}
				res, err := task.Process(context.Background(), in, &Checkpoint{})
				if err != nil {
					t.Fatalf("%s: piece %d: %v", name, i, err)
				}
				parts = append(parts, res)
			}
			want, err := b.Aggregate(parts)
			if err != nil {
				t.Fatalf("%s: aggregate of %q: %v", name, parts, err)
			}
			acc := parts[0]
			for _, p := range parts[1:] {
				if acc, err = b.Aggregate([][]byte{acc, p}); err != nil {
					t.Fatalf("%s: folding %q: %v", name, p, err)
				}
			}
			if len(parts) > 1 && !bytes.Equal(acc, want) {
				t.Fatalf("%s: the fold of %q is %q, Aggregate of all is %q", name, parts, acc, want)
			}
			// A cut carries the accumulator as one partial: alone, it
			// aggregates to itself.
			if again, err := b.Aggregate([][]byte{want}); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("%s: Aggregate of %q alone is %q, %v", name, want, again, err)
			}
		}
	})
}

// longDigitRun reports whether in holds more than 12 digits in a row.
func longDigitRun(in []byte) bool {
	run := 0
	for _, c := range in {
		if run = run + 1; c < '0' || c > '9' {
			run = 0
		}
		if run > 12 {
			return true
		}
	}
	return false
}

// lineCut is the offset just past in's n-th newline (counting from 1), or
// 0 when n is 0 or in has fewer lines.
func lineCut(in []byte, n int) int {
	off := 0
	for ; n > 0; n-- {
		i := bytes.IndexByte(in[off:], '\n')
		if i < 0 {
			return 0
		}
		off += i + 1
	}
	return off
}

// interruptedState is the checkpoint state of a run of task interrupted
// once it has read all of in: the state a failure report carries, the
// accumulator over in.
func interruptedState(t *testing.T, task Task, in []byte) []byte {
	res, err := task.Process(context.Background(), in, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	var st any = countState{}
	if _, isMax := task.(MaxInt); isMax {
		m := maxState{}
		if s := string(res); s != "none" {
			m.Max, m.Seen = mustInt(t, s), true
		}
		st = m
	} else {
		st = countState{Count: mustInt(t, string(res))}
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustInt(t *testing.T, s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
