package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"

	"cwc/internal/tasks"
)

// assignFrames returns the wire bytes of one assign frame per size, each
// input filled with its own byte so a frame read into the wrong buffer
// shows.
func assignFrames(t testing.TB, sizes ...int) []byte {
	t.Helper()
	var out []byte
	for i, n := range sizes {
		out = append(out, encodeFrame(t, &Message{Type: TypeAssign, JobID: i + 1,
			Input: bytes.Repeat([]byte{byte('a' + i%26)}, n)})...)
	}
	return out
}

// recycling returns a connection over data with recycling switched on,
// as a worker's is once it has recycled its welcome.
func recycling(data []byte) *Conn {
	c := connOver(data)
	c.Recycle(&Message{Type: TypeWelcome})
	return c
}

// recvAll receives n frames before any is recycled, so each lands in a
// buffer of its own.
func recvAll(t *testing.T, c *Conn, n int) []*Message {
	t.Helper()
	ms := make([]*Message, n)
	for i := range ms {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

// freeCaps lists the capacities of the buffers c keeps, in its order.
func freeCaps(c *Conn) []int {
	c.bufs.mu.Lock()
	defer c.bufs.mu.Unlock()
	var caps []int
	for _, b := range c.bufs.free {
		caps = append(caps, cap(b))
	}
	return caps
}

// byteFields calls fn with the path of every []byte reachable from v.
func byteFields(v reflect.Value, path string, fn func(path string, b []byte)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			byteFields(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			byteFields(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			fn(path, v.Bytes())
			return
		}
		for i := 0; i < v.Len(); i++ {
			byteFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// After Recycle the message is zeroed in full, and the checkpoints it
// pointed to no longer point into the buffer either: whoever kept one
// keeps its offset, never bytes a later frame overwrites.
func TestRecycleClearsEveryByteField(t *testing.T) {
	c := recycling(encodeFrame(t, fullMessage(TypeFailure)))
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	set := 0
	byteFields(reflect.ValueOf(m), "m", func(string, []byte) { set++ })
	if set != 6 {
		t.Fatalf("the received message has %d byte fields, want the 6 sections", set)
	}
	resume, ckpt := m.Resume, m.Checkpoint
	want := []tasks.Checkpoint{{Offset: resume.Offset}, {Offset: ckpt.Offset}}
	c.Recycle(m)
	if !reflect.DeepEqual(*m, Message{}) {
		t.Errorf("Recycle left %+v, want the zero Message", *m)
	}
	if got := []tasks.Checkpoint{*resume, *ckpt}; !reflect.DeepEqual(got, want) {
		t.Errorf("the recycled message's checkpoints read %+v, want %+v: offsets kept, no state", got, want)
	}
	if got := freeCaps(c); len(got) != 1 {
		t.Errorf("kept buffers %v, want the frame's one", got)
	}
}

// A recycled buffer receives the next frame it holds: that Recv costs no
// body allocation, and the new message reads its own bytes.
func TestRecvReusesARecycledBuffer(t *testing.T) {
	const size = 64 << 10
	c := recycling(assignFrames(t, size, size))
	first, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	c.Recycle(first)
	var second *Message
	alloc := allocatedBy(func() { second, err = c.Recv() })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Input, bytes.Repeat([]byte{'b'}, size)) {
		t.Fatalf("the second frame read back %q..., want its own bytes", second.Input[:8])
	}
	// A quarter of the frame: the header's few hundred bytes plus room for
	// whatever the runtime allocates meanwhile, far from a fresh body.
	if alloc > size/4 {
		t.Fatalf("a %d-byte frame into a recycled buffer allocated %d bytes", size, alloc)
	}
}

// Without a Recycle the connection remembers nothing it hands out: a
// peer that keeps its messages (the master) reads every frame into a
// buffer of its own.
func TestRecvWithoutRecycleLendsNothing(t *testing.T) {
	c := connOver(assignFrames(t, 1<<10, 1<<10))
	for i := 0; i < 2; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.bufs.lent) != 0 || len(c.bufs.free) != 0 {
		t.Fatalf("a connection never recycled holds %d loans and %d buffers", len(c.bufs.lent), len(c.bufs.free))
	}
}

// Up to maxRecycled buffers are kept, the larger ones when there are
// more; a frame takes the smallest that holds it; a message recycled
// twice, or one from another connection, gives back nothing.
func TestRecycleKeepsTheLargerBuffers(t *testing.T) {
	sizes := []int{5 << 10, 1 << 10, 3 << 10, 4 << 10, 2 << 10}
	c := recycling(assignFrames(t, append(sizes, 3<<10)...))
	for _, m := range recvAll(t, c, len(sizes)) {
		c.Recycle(m)
		c.Recycle(m)
	}
	other := recycling(assignFrames(t, 8<<10))
	stranger, err := other.Recv()
	if err != nil {
		t.Fatal(err)
	}
	c.Recycle(stranger)
	if got, want := freeCaps(c), []int{5 << 10, 2 << 10, 3 << 10, 4 << 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v, want %v (the four largest, once each)", got, want)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if got, want := freeCaps(c), []int{5 << 10, 2 << 10, 4 << 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a 3 KB frame left %v, want %v", got, want)
	}
}

// A buffer larger than maxPooledFrame is not kept; one at 4 MiB is.
func TestRecycleKeepsNoBufferOver8MiB(t *testing.T) {
	c := recycling(assignFrames(t, maxPooledFrame+1<<20, 4<<20))
	for _, want := range [][]int{nil, {4 << 20}} {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		n := len(m.Input)
		c.Recycle(m)
		if got := freeCaps(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("after recycling a %d-byte frame the connection keeps %v, want %v", n, got, want)
		}
	}
}

// heapAtEOF is the read side of a stream holding data: when the data runs
// out it records the live heap, with the reader's buffer for the frame in
// progress still on its stack.
type heapAtEOF struct {
	net.Conn
	r    *bytes.Reader
	live uint64
}

func (c *heapAtEOF) Read(p []byte) (int, error) {
	if c.r.Len() == 0 && c.live == 0 {
		c.live = liveHeap()
	}
	return c.r.Read(p)
}

func (c *heapAtEOF) Close() error { return nil }

// liveHeap collects and returns the bytes still reachable.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A frame declaring 256 MiB, sent to a connection holding recycled 1 MiB
// buffers, commits at most twice the bytes that landed — a recycled
// buffer changes nothing in readN's guard — and fails as a truncation,
// leaving the kept buffers in place.
func TestRecvHostileLengthWithRecycledBuffers(t *testing.T) {
	const landed = 3 << 20
	header := hdr(typeAssign, input(MaxFrameSize-4-7)) // seven bytes
	stream := append(assignFrames(t, 1<<20, 1<<20), rawFrame(MaxFrameSize, uint32(len(header)), header, make([]byte, landed))...)
	src := &heapAtEOF{r: bytes.NewReader(stream)}
	c := NewConn(src)
	c.Recycle(&Message{Type: TypeWelcome})
	for _, m := range recvAll(t, c, 2) {
		c.Recycle(m)
	}
	if got := freeCaps(c); len(got) != 2 {
		t.Fatalf("kept %v, want two 1 MiB buffers", got)
	}
	before := liveHeap()
	_, err := c.Recv()
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err %v, want a truncation error", err)
	}
	if src.live == 0 {
		t.Fatal("the stream was never read to its end")
	}
	if committed := int64(src.live) - int64(before); committed > 2*landed {
		t.Fatalf("a %d-byte claim with %d bytes landed committed %d bytes, want at most %d", MaxFrameSize, landed, committed, 2*landed)
	}
	if got := freeCaps(c); len(got) != 2 {
		t.Fatalf("after the hostile frame the connection keeps %v, want its two buffers", got)
	}
}

// The master's pattern: the reader hands each message to another
// goroutine, which keeps the frame's bytes and gives the struct alone
// back with Reuse. Every kept slice still reads its own frame, and Recv
// serves the stream from a few given-back structs, not one per frame.
func TestReuseKeepsTheBytesAcrossGoroutines(t *testing.T) {
	const n = 200
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 64
	}
	c := connOver(assignFrames(t, sizes...))
	handed := make(chan *Message)
	structs := make(chan map[*Message]bool)
	kept := make([][]byte, n)
	go func() {
		seen := map[*Message]bool{}
		for m := range handed {
			seen[m] = true
			kept[m.JobID-1] = m.Input
			c.Reuse(m)
		}
		structs <- seen
	}()
	for range n {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		handed <- m
	}
	close(handed)
	if seen := <-structs; len(seen) > maxRecycled {
		t.Errorf("%d frames arrived in %d messages, want at most %d", n, len(seen), maxRecycled)
	}
	for i, b := range kept {
		if want := bytes.Repeat([]byte{byte('a' + i%26)}, 64); !bytes.Equal(b, want) {
			t.Fatalf("frame %d's kept input reads %q, want %q", i+1, b, want)
		}
	}
}
