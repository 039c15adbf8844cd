package tasks

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// countState is the shared checkpoint accumulator for counting tasks.
type countState struct {
	Count int64 `json:"count"`
}

func loadCountState(ck *Checkpoint) (countState, error) {
	var st countState
	if len(ck.State) == 0 {
		return st, nil
	}
	if err := json.Unmarshal(ck.State, &st); err != nil {
		return st, fmt.Errorf("tasks: corrupt count state: %w", err)
	}
	return st, nil
}

func (s countState) save(ck *Checkpoint) {
	// Marshalling a flat int64 cannot fail.
	ck.State, _ = json.Marshal(s)
}

// aggregateCounts sums decimal integer partials (the server-side merge for
// counting tasks: "the server can simply sum the number of occurrences
// reported by each phone").
func aggregateCounts(partials [][]byte) ([]byte, error) {
	var total int64
	for i, p := range partials {
		v, err := strconv.ParseInt(string(bytes.TrimSpace(p)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tasks: partial %d is not a count: %w", i, err)
		}
		total += v
	}
	return []byte(strconv.FormatInt(total, 10)), nil
}

// PrimeCount counts prime numbers in an input file of one integer per
// line — the paper's first evaluation task. Breakable.
type PrimeCount struct{}

// Register the executable at init, as an Android build would bundle it.
func init() {
	Register("primecount", func([]byte) (Task, error) { return PrimeCount{}, nil })
}

// Name implements Task.
func (PrimeCount) Name() string { return "primecount" }

// Params implements Task.
func (PrimeCount) Params() []byte { return nil }

// ExecKB implements Task. Sizes approximate the paper's dex-packaged jars.
func (PrimeCount) ExecKB() float64 { return 12 }

// Process implements Task.
func (PrimeCount) Process(ctx context.Context, input []byte, ck *Checkpoint) ([]byte, error) {
	st, err := loadCountState(ck)
	if err != nil {
		return nil, err
	}
	err = forEachLine(ctx, input, ck, func() { st.save(ck) }, func(line []byte) {
		n, perr := lineInt(line)
		if perr == nil && isPrime(n) {
			st.Count++
		}
	})
	if err != nil {
		st.save(ck)
		return nil, err
	}
	return []byte(strconv.FormatInt(st.Count, 10)), nil
}

// Split implements Breakable.
func (PrimeCount) Split(input []byte, sizesKB []float64) ([][]byte, error) {
	return splitLines(input, sizesKB)
}

// Aggregate implements Breakable.
func (PrimeCount) Aggregate(partials [][]byte) ([]byte, error) {
	return aggregateCounts(partials)
}

// lineInt parses one line of an integer input as
// strconv.ParseInt(string(bytes.TrimSpace(line)), 10, 64) does. A line of
// 1 to 18 ASCII digits, which no int64 overflows, is parsed in place;
// any other takes that path.
func lineInt(line []byte) (int64, error) {
	n, ok := int64(0), len(line) > 0 && len(line) <= 18
	for i := 0; ok && i < len(line); i++ {
		d := line[i] - '0'
		n, ok = n*10+int64(d), d <= 9
	}
	if ok {
		return n, nil
	}
	return strconv.ParseInt(string(bytes.TrimSpace(line)), 10, 64)
}

// isPrime is deterministic trial division; inputs are line-sized integers
// so O(sqrt n) is plenty.
func isPrime(n int64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := int64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// WordCount counts occurrences of a target word in a text input — the
// paper's second evaluation task. Breakable. Words are the maximal runs
// of non-whitespace, matched exactly, where whitespace is what
// bytes.Fields splits on: unicode.IsSpace of each UTF-8-decoded rune (an
// invalid byte decodes to utf8.RuneError, which is not a space).
type WordCount struct {
	Word string `json:"word"`
}

func init() {
	Register("wordcount", func(params []byte) (Task, error) {
		var w WordCount
		if len(params) == 0 {
			return nil, fmt.Errorf("tasks: wordcount requires a target word")
		}
		if err := json.Unmarshal(params, &w); err != nil {
			return nil, fmt.Errorf("tasks: bad wordcount params: %w", err)
		}
		if w.Word == "" {
			return nil, fmt.Errorf("tasks: wordcount requires a non-empty word")
		}
		return w, nil
	})
}

// Name implements Task.
func (WordCount) Name() string { return "wordcount" }

// Params implements Task.
func (w WordCount) Params() []byte {
	b, _ := json.Marshal(w)
	return b
}

// ExecKB implements Task.
func (WordCount) ExecKB() float64 { return 9 }

// Process implements Task.
func (w WordCount) Process(ctx context.Context, input []byte, ck *Checkpoint) ([]byte, error) {
	st, err := loadCountState(ck)
	if err != nil {
		return nil, err
	}
	err = forEachLine(ctx, input, ck, func() { st.save(ck) }, func(line []byte) {
		st.Count += countWord(line, w.Word)
	})
	if err != nil {
		st.save(ck)
		return nil, err
	}
	return []byte(strconv.FormatInt(st.Count, 10)), nil
}

// countWord counts the words of line equal to word, scanning in place.
func countWord(line []byte, word string) int64 {
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

// asciiSpace is unicode.IsSpace over the ASCII range.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipRun returns the index of the first rune of b at or after i that is
// whitespace if space is false, or not whitespace if space is true.
func skipRun(b []byte, i int, space bool) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, width := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += width
	}
	return i
}

// Split implements Breakable.
func (WordCount) Split(input []byte, sizesKB []float64) ([][]byte, error) {
	return splitLines(input, sizesKB)
}

// Aggregate implements Breakable.
func (WordCount) Aggregate(partials [][]byte) ([]byte, error) {
	return aggregateCounts(partials)
}

// MaxInt finds the largest integer in an input file of one integer per
// line — the task from the paper's bandwidth-variability experiment
// (Figure 5). Breakable: max is associative.
type MaxInt struct{}

func init() {
	Register("maxint", func([]byte) (Task, error) { return MaxInt{}, nil })
}

// maxState tracks whether any integer has been seen, so an all-empty
// partition aggregates correctly.
type maxState struct {
	Max  int64 `json:"max"`
	Seen bool  `json:"seen"`
}

// Name implements Task.
func (MaxInt) Name() string { return "maxint" }

// Params implements Task.
func (MaxInt) Params() []byte { return nil }

// ExecKB implements Task.
func (MaxInt) ExecKB() float64 { return 6 }

// Process implements Task. The result is the decimal max, or "none" when
// the input holds no integers.
func (MaxInt) Process(ctx context.Context, input []byte, ck *Checkpoint) ([]byte, error) {
	var st maxState
	if len(ck.State) > 0 {
		if err := json.Unmarshal(ck.State, &st); err != nil {
			return nil, fmt.Errorf("tasks: corrupt max state: %w", err)
		}
	}
	save := func() { ck.State, _ = json.Marshal(st) }
	err := forEachLine(ctx, input, ck, save, func(line []byte) {
		n, perr := lineInt(line)
		if perr != nil {
			return
		}
		if !st.Seen || n > st.Max {
			st.Max, st.Seen = n, true
		}
	})
	if err != nil {
		ck.State, _ = json.Marshal(st)
		return nil, err
	}
	if !st.Seen {
		return []byte("none"), nil
	}
	return []byte(strconv.FormatInt(st.Max, 10)), nil
}

// Split implements Breakable.
func (MaxInt) Split(input []byte, sizesKB []float64) ([][]byte, error) {
	return splitLines(input, sizesKB)
}

// Aggregate implements Breakable.
func (MaxInt) Aggregate(partials [][]byte) ([]byte, error) {
	var best int64
	seen := false
	for i, p := range partials {
		s := string(bytes.TrimSpace(p))
		if s == "none" {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tasks: partial %d is not a max: %w", i, err)
		}
		if !seen || v > best {
			best, seen = v, true
		}
	}
	if !seen {
		return []byte("none"), nil
	}
	return []byte(strconv.FormatInt(best, 10)), nil
}

// PartialResult implements PartialReporter: the checkpointed count is
// itself a valid partial result.
func (PrimeCount) PartialResult(state []byte) ([]byte, error) {
	return countStateToResult(state)
}

// PartialResult implements PartialReporter.
func (WordCount) PartialResult(state []byte) ([]byte, error) {
	return countStateToResult(state)
}

func countStateToResult(state []byte) ([]byte, error) {
	var st countState
	if len(state) > 0 {
		if err := json.Unmarshal(state, &st); err != nil {
			return nil, fmt.Errorf("tasks: corrupt count state: %w", err)
		}
	}
	return []byte(strconv.FormatInt(st.Count, 10)), nil
}

// PartialResult implements PartialReporter: an interrupted max search
// reports the best value seen so far (or "none").
func (MaxInt) PartialResult(state []byte) ([]byte, error) {
	var st maxState
	if len(state) > 0 {
		if err := json.Unmarshal(state, &st); err != nil {
			return nil, fmt.Errorf("tasks: corrupt max state: %w", err)
		}
	}
	if !st.Seen {
		return []byte("none"), nil
	}
	return []byte(strconv.FormatInt(st.Max, 10)), nil
}
