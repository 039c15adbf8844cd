// Package tasks implements CWC's task model (paper §4): executables that
// process an input file and return a result, shipped to phones and run
// without user interaction.
//
// The paper distinguishes *breakable* tasks — the input can be partitioned
// at record boundaries, partial results aggregated at the server (word
// counting, prime counting) — from *atomic* tasks whose input has internal
// dependencies and must run on a single phone (photo blurring), though
// batches of atomic tasks still run concurrently across phones.
//
// The Android prototype ships .jar files loaded via reflection; here the
// "executable" is a registered, named task factory the worker instantiates
// on receipt (the same property: the server decides at runtime what code a
// phone runs, with zero human interaction). Migration state (the paper's
// JavaGO port) is a Checkpoint: byte offset into the input plus the task's
// serialized partial accumulator.
package tasks

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"cwc/internal/wire"
)

// ErrInterrupted is returned by Task.Process when the context is canceled
// mid-execution (the phone was unplugged). The checkpoint passed to
// Process then holds the migration state.
var ErrInterrupted = errors.New("tasks: execution interrupted")

// Checkpoint is the migratable execution state of a task: how much of the
// input was consumed and the task-specific partial accumulator. It is the
// repo's analogue of JavaGO's migrated stack area.
type Checkpoint struct {
	Offset int64  `json:"offset"`          // bytes of input fully processed
	State  []byte `json:"state,omitempty"` // task-specific accumulator
}

// Wire names the checkpoint's fields for the codec. On a frame or a WAL
// record the offset rides in the header and the state as a section.
func (c *Checkpoint) Wire(w *wire.Codec) {
	wire.Int(w, 1, &c.Offset)
	w.Section(2, &c.State)
}

// Reset clears the checkpoint to the start-of-input state.
func (c *Checkpoint) Reset() {
	c.Offset = 0
	c.State = nil
}

// Clone returns a deep copy of the checkpoint (nil in, nil out): the
// copy's State shares no memory with the original, so either side may
// keep mutating its accumulator.
func (c *Checkpoint) Clone() *Checkpoint {
	if c == nil {
		return nil
	}
	out := &Checkpoint{Offset: c.Offset}
	if c.State != nil {
		out.State = append([]byte(nil), c.State...)
	}
	return out
}

// Task is a CWC executable.
type Task interface {
	// Name is the registered executable name.
	Name() string
	// Params returns the serialized task parameters (may be nil); a
	// worker reconstructs the task via New(Name, Params).
	Params() []byte
	// ExecKB is the executable's size in KB, shipped once per phone
	// before its first partition of the task (E_j in the paper).
	ExecKB() float64
	// Process runs the task over input, resuming from ck. On success it
	// returns the result. If ctx is canceled it saves its state into ck
	// and returns ErrInterrupted. Implementations must treat input as
	// read-only, and neither the result nor ck.State may alias it: a
	// worker reuses input's memory once the attempt has reported. A
	// worker runs one instance for every assignment in a row that names
	// its task with the same params, so Process keeps no state in it.
	Process(ctx context.Context, input []byte, ck *Checkpoint) ([]byte, error)
}

// Breakable is a task whose input can be split into independently
// processable pieces whose results merge associatively.
type Breakable interface {
	Task
	// Split partitions input into len(sizesKB) pieces of approximately
	// the given sizes (KB), honouring record boundaries. The pieces are
	// returned in input order and concatenate to the original input, so
	// their lengths sum to len(input) and piece k starts at the sum of
	// the lengths before it (a piece may be empty). The server relies on
	// this: it addresses a piece by offset and length within the input
	// (its write-ahead log never copies the bytes) and refuses a round
	// whose split does not add up.
	Split(input []byte, sizesKB []float64) ([][]byte, error)
	// Aggregate merges per-partition results into the job result.
	Aggregate(partials [][]byte) ([]byte, error)
}

// PartialReporter is implemented by breakable tasks that can convert an
// interrupted execution's checkpoint accumulator into a partial *result*.
// The server then saves the partial result for aggregation and reschedules
// only the unprocessed remainder of the input — the paper's "last_i is
// inserted with only the part of the input not processed by i (and the
// intermediate results are saved)". Tasks without this capability are
// migrated whole: input plus checkpoint move to the new phone.
type PartialReporter interface {
	// PartialResult converts a checkpoint State into a result fragment
	// compatible with Aggregate.
	PartialResult(state []byte) ([]byte, error)
}

// Factory constructs a task from its serialized parameters.
type Factory func(params []byte) (Task, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a task factory under a unique name. It panics on duplicate
// registration: that is a programming error caught at init time.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("tasks: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New instantiates a registered task — the worker-side equivalent of the
// prototype's reflection class loading.
func New(name string, params []byte) (Task, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tasks: unknown executable %q", name)
	}
	return f(params)
}

// Names returns the registered task names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// interruptEvery is how many records a task processes between context
// checks; small enough that an unplug checkpoint loses little work.
const interruptEvery = 256

// canceled is a non-blocking context check.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
