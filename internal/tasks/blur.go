package tasks

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Blur applies a 3x3 box blur to an image — the paper's third evaluation
// task and its canonical *atomic* task: each output pixel depends on its
// neighbours, so the input cannot be partitioned across phones. Batches of
// Blur tasks still run concurrently, one photo per phone.
//
// The prototype hit a Dalvik/JVM incompatibility (no BufferedImage on
// Android) and worked around it by pre-processing photos into text files
// with one pixel per line; the phones process text, and the server
// re-creates the photo. EncodeImage/DecodeImage implement exactly that
// text-pixel format:
//
//	W H\n
//	R G B\n   (W*H lines, row-major)
type Blur struct{}

func init() {
	Register("blur", func([]byte) (Task, error) { return Blur{}, nil })
}

// Name implements Task.
func (Blur) Name() string { return "blur" }

// Params implements Task.
func (Blur) Params() []byte { return nil }

// ExecKB implements Task.
func (Blur) ExecKB() float64 { return 15 }

// Pixel is an 8-bit RGB sample.
type Pixel struct {
	R, G, B uint8
}

// Image is a row-major pixel grid.
type Image struct {
	W, H   int
	Pixels []Pixel // len == W*H
}

// At returns the pixel at (x, y) with edge clamping.
func (im *Image) At(x, y int) Pixel {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	return im.Pixels[y*im.W+x]
}

// EncodeImage renders an image in the text-pixel format (the server-side
// pre-processing step of the prototype).
func EncodeImage(im *Image) ([]byte, error) {
	if im.W <= 0 || im.H <= 0 || len(im.Pixels) != im.W*im.H {
		return nil, fmt.Errorf("tasks: invalid image %dx%d with %d pixels", im.W, im.H, len(im.Pixels))
	}
	// A header is at most two 19-digit ints, a pixel line "255 255 255\n".
	buf := make([]byte, 0, 40+12*len(im.Pixels))
	buf = strconv.AppendInt(buf, int64(im.W), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(im.H), 10)
	buf = append(buf, '\n')
	for _, p := range im.Pixels {
		buf = strconv.AppendUint(buf, uint64(p.R), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(p.G), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(p.B), 10)
		buf = append(buf, '\n')
	}
	return buf, nil
}

// DecodeImage parses the text-pixel format (the server-side re-creation
// step). Lines end at '\n'. The first line holds the width and the height.
// Every later line is trimmed of whitespace (unicode.IsSpace); a line left
// empty is skipped, and any other holds one pixel's R, G and B. On each
// line, spaces before the first number are skipped, a number is an
// optional '+' or '-' and decimal digits that fit an int64, consecutive
// numbers are separated by one or more spaces, and whatever follows the
// last number is ignored — exactly what scanning the line with fmt's "%d
// %d" or "%d %d %d" accepts. There must be exactly width×height pixels,
// each channel in [0, 255].
func DecodeImage(data []byte) (*Image, error) {
	header, rest, _ := bytes.Cut(data, newline)
	var dims [2]int64
	if err := scanInts(header, dims[:]); err != nil {
		return nil, fmt.Errorf("tasks: bad image header %q: %w", header, err)
	}
	w, h := dims[0], dims[1]
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("tasks: bad image dimensions %dx%d", w, h)
	}
	// Every pixel line takes several bytes, so an image with more pixels
	// than data has bytes cannot be complete; refusing it up front bounds
	// the allocation below and keeps w*h from overflowing.
	if h > int64(len(data))/w {
		return nil, fmt.Errorf("tasks: image %dx%d cannot fit in %d bytes", w, h, len(data))
	}
	n := int(w * h)
	im := &Image{W: int(w), H: int(h), Pixels: make([]Pixel, 0, n)}
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, newline)
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rgb [3]int64
		if err := scanInts(line, rgb[:]); err != nil {
			return nil, fmt.Errorf("tasks: bad pixel line %q: %w", line, err)
		}
		if rgb[0] < 0 || rgb[0] > 255 || rgb[1] < 0 || rgb[1] > 255 || rgb[2] < 0 || rgb[2] > 255 {
			return nil, fmt.Errorf("tasks: pixel %q out of 8-bit range", line)
		}
		im.Pixels = append(im.Pixels, Pixel{uint8(rgb[0]), uint8(rgb[1]), uint8(rgb[2])})
	}
	if len(im.Pixels) != n {
		return nil, fmt.Errorf("tasks: image has %d pixels, header says %d", len(im.Pixels), n)
	}
	return im, nil
}

var newline = []byte{'\n'}

// scanInts fills dst with the leading numbers of line, in DecodeImage's
// grammar.
func scanInts(line []byte, dst []int64) error {
	i := 0
	for k := range dst {
		j := skipRun(line, i, true)
		if k > 0 && j == i && i < len(line) {
			return fmt.Errorf("expected space before number %d", k+1)
		}
		v, next, err := scanInt(line, j)
		if err != nil {
			return err
		}
		dst[k], i = v, next
	}
	return nil
}

var errOutOfRange = errors.New("integer out of int64 range")

// scanInt parses an optionally signed decimal integer starting at b[i]
// and returns it with the index just past its last digit.
func scanInt(b []byte, i int) (int64, int, error) {
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var mag uint64 // int64's range is magnitudes up to 1<<63 (math.MinInt64)
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if mag > (1<<63)/10 {
			return 0, i, errOutOfRange
		}
		mag = mag*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start:
		return 0, i, errors.New("expected integer")
	case mag > 1<<63 || !neg && mag > math.MaxInt64:
		return 0, i, errOutOfRange
	case neg:
		return -int64(mag), i, nil
	}
	return int64(mag), i, nil
}

// blurState checkpoints the blur by completed output rows.
type blurState struct {
	Row int     `json:"row"` // next output row to compute
	Out []Pixel `json:"out"` // completed output pixels (Row * W entries)
}

// Process implements Task. The result is the blurred image in the same
// text-pixel format.
func (Blur) Process(ctx context.Context, input []byte, ck *Checkpoint) ([]byte, error) {
	im, err := DecodeImage(input)
	if err != nil {
		return nil, err
	}
	var st blurState
	if len(ck.State) > 0 {
		if err := json.Unmarshal(ck.State, &st); err != nil {
			return nil, fmt.Errorf("tasks: corrupt blur state: %w", err)
		}
		if st.Row < 0 || st.Row > im.H || len(st.Out) != st.Row*im.W {
			return nil, fmt.Errorf("tasks: blur state inconsistent with image")
		}
	}
	out := slices.Grow(st.Out, im.W*im.H-len(st.Out))
	sink := sinkFrom(ctx)
	for y := st.Row; y < im.H; y++ {
		pauseIfPaced(ctx)
		if sink != nil {
			// Streaming checkpoints at row granularity; the proportional
			// offset mirrors the interrupt path below.
			sink.maybeFlush(int64(len(input))*int64(y)/int64(im.H), ck, func() {
				st.Row, st.Out = y, out
				ck.State, _ = json.Marshal(st)
			})
		}
		if canceled(ctx) {
			st.Row, st.Out = y, out
			ck.State, err = json.Marshal(st)
			if err != nil {
				return nil, fmt.Errorf("tasks: saving blur state: %w", err)
			}
			// Offset reports input progress proportionally so failure
			// reports can state how much work is left.
			ck.Offset = int64(len(input)) * int64(y) / int64(im.H)
			return nil, ErrInterrupted
		}
		for x := 0; x < im.W; x++ {
			var r, g, b int
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					p := im.At(x+dx, y+dy)
					r += int(p.R)
					g += int(p.G)
					b += int(p.B)
				}
			}
			out = append(out, Pixel{uint8(r / 9), uint8(g / 9), uint8(b / 9)})
		}
	}
	ck.Offset = int64(len(input))
	blurred := &Image{W: im.W, H: im.H, Pixels: out}
	return EncodeImage(blurred)
}

// GrayscaleDistance returns the mean absolute per-channel difference
// between two images — a test helper exported for examples that want to
// verify a blur actually smoothed an image.
func GrayscaleDistance(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H || len(a.Pixels) != len(b.Pixels) {
		return 0, fmt.Errorf("tasks: image sizes differ (%dx%d vs %dx%d)", a.W, a.H, b.W, b.H)
	}
	if len(a.Pixels) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range a.Pixels {
		sum += absDiff(a.Pixels[i].R, b.Pixels[i].R)
		sum += absDiff(a.Pixels[i].G, b.Pixels[i].G)
		sum += absDiff(a.Pixels[i].B, b.Pixels[i].B)
	}
	return sum / float64(3*len(a.Pixels)), nil
}

func absDiff(a, b uint8) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
