// Package protocol defines the wire protocol between the CWC central
// server and the phone workers: length-prefixed frames over a persistent
// TCP connection, each a small JSON header followed by the frame's byte
// payloads as raw sections (the prototype's Java NIO server spoke an
// equivalent custom protocol). Payload bytes cross the link once, at
// their own size — the scheduler plans on measured per-KB transfer time,
// so the wire must not inflate it. docs/protocol.md has the byte layout.
//
// The connection carries registration, iperf-style bandwidth probes, task
// assignment (executable name + parameters + input partition, optionally a
// migrated checkpoint), completion and failure reports, and application-
// level keepalives — the paper's offline-failure detector (30 s period,
// 3 tolerated misses).
package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"cwc/internal/tasks"
)

// Type discriminates protocol messages.
type Type string

// Message types.
const (
	// Worker -> server on connect: model, CPU clock, RAM.
	TypeHello Type = "hello"
	// Server -> worker: assigned phone ID and keepalive parameters.
	TypeWelcome Type = "welcome"
	// Server -> worker: timed bulk payload for bandwidth estimation.
	TypeProbe Type = "probe"
	// Worker -> server: probe acknowledgement.
	TypeProbeAck Type = "probe_ack"
	// Server -> worker: run a task on an input partition. Large inputs
	// are streamed: the assign frame carries the first chunk and the
	// total length, followed by assign_chunk frames until complete.
	TypeAssign Type = "assign"
	// Server -> worker: continuation bytes of a chunked assignment.
	TypeAssignChunk Type = "assign_chunk"
	// Worker -> server: completed partition with result and timing.
	TypeResult Type = "result"
	// Worker -> server: partition failed (unplug); carries the
	// checkpoint for migration.
	TypeFailure Type = "failure"
	// Server -> worker keepalive, and its response.
	TypePing Type = "ping"
	TypePong Type = "pong"
	// Server -> worker: orderly shutdown.
	TypeBye Type = "bye"
	// Worker -> server: a mid-execution checkpoint snapshot (checkpoint
	// streaming). Where a failure report's checkpoint only survives an
	// *online* failure, these bound the work lost to a silent death.
	TypeCheckpoint Type = "checkpoint"
	// Server -> worker: flow-control acknowledgement of a streamed
	// checkpoint (the worker caps unacknowledged checkpoint frames).
	TypeCheckpointAck Type = "checkpoint_ack"
	// Server -> worker: proactive drain. The phone's predicted charge
	// window is closing; the worker must flush a checkpoint at its next
	// progress point and interrupt any in-flight task, reporting it as a
	// failure (with the checkpoint) so the server can requeue cleanly
	// before the expected disconnect. The connection stays open.
	TypeDrain Type = "drain"
	// Worker -> server: a batch of worker-side span events (see
	// WorkerEvent), shipped opportunistically after pong and result
	// frames. Sent only when the welcome announced Telemetry — with the
	// master's admin plane off, zero telemetry frames cross the wire.
	// Purely observational: the master folds the events into its trace
	// ring and never acts on them.
	TypeTelemetry Type = "telemetry"
)

// EventKind discriminates worker-side span events carried in telemetry
// frames. The master's fold switches over these; the cwc-vet frames
// analyzer requires that switch to stay exhaustive-or-default.
type EventKind string

// Worker-side event kinds.
const (
	// EventAssignRecv: an assignment was received and queued (after
	// chunked assembly completed, for streamed inputs).
	EventAssignRecv EventKind = "assign_recv"
	// EventExecStart / EventExecFinish bracket task execution; finish
	// carries the wall ms and the outcome in Detail ("ok", "failed",
	// "drained", "unplugged").
	EventExecStart  EventKind = "exec_start"
	EventExecFinish EventKind = "exec_finish"
	// EventThrottlePause: the MIMD charging throttle held execution.
	EventThrottlePause EventKind = "throttle_pause"
	// EventCkptFlush / EventCkptAck bracket a streamed checkpoint's
	// round trip as the worker sees it.
	EventCkptFlush EventKind = "ckpt_flush"
	EventCkptAck   EventKind = "ckpt_ack"
	// EventDrainHandback: a proactive drain interrupted the running
	// task and the partition was handed back with its checkpoint.
	EventDrainHandback EventKind = "drain_handback"
	// EventDial: a dial attempt in the reconnect/failover loop; Detail
	// carries the address and outcome.
	EventDial EventKind = "dial"
)

// WorkerEvent is one worker-side span event. TSMs is the worker's own
// clock (unix milliseconds) — the master keeps it in Ms-resolution
// order but never compares it against its own clock for correctness.
// Span is the parent trace span carried on the assign frame (empty for
// events outside any assignment, e.g. dials); Epoch is the fencing
// epoch the worker held when the event was minted, so a timeline
// assembled across a failover shows which regime each event belongs to.
type WorkerEvent struct {
	TSMs      int64     `json:"ts_ms"`
	Kind      EventKind `json:"kind"`
	Span      string    `json:"span,omitempty"`
	Job       int       `json:"job,omitempty"`
	Partition int       `json:"partition,omitempty"`
	Bytes     int64     `json:"bytes,omitempty"`
	Ms        float64   `json:"ms,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	Epoch     int64     `json:"epoch,omitempty"`
}

// Message is the single frame shape; fields are populated per Type.
// A union keeps the framing trivial and the protocol self-describing.
//
// Payload, Params, Input, Result and the State of Resume and Checkpoint
// are not part of the JSON header: they ride after it as raw sections
// (see rawSections), and Recv hands them out as sub-slices of one
// receive buffer. A received message therefore owns its byte fields until
// it is recycled (Conn.Recycle), but they share a backing array — holding
// one keeps the whole frame alive.
type Message struct {
	Type Type `json:"type"`

	// Hello / Welcome.
	// Token authenticates the phone to the server when the deployment
	// configures a shared enrolment secret.
	Token   string  `json:"token,omitempty"`
	Model   string  `json:"model,omitempty"`
	CPUMHz  float64 `json:"cpu_mhz,omitempty"`
	RAMMB   int     `json:"ram_mb,omitempty"`
	PhoneID int     `json:"phone_id,omitempty"`
	// Rejoin marks a hello as a reconnection: the phone previously held
	// PhoneID and asks to resume that identity (checkpointed work and
	// bandwidth estimates survive the reconnect).
	Rejoin bool `json:"rejoin,omitempty"`
	// Welcome: keepalive parameters the worker should expect.
	KeepaliveMs int `json:"keepalive_ms,omitempty"`
	// Welcome: the checkpoint-streaming policy the server asks workers to
	// follow — stream a checkpoint every CkptEveryKB of processed input
	// and/or every CkptEveryMs of wall time (zero disables that trigger;
	// worker-side configuration may override).
	CkptEveryKB int `json:"ckpt_every_kb,omitempty"`
	CkptEveryMs int `json:"ckpt_every_ms,omitempty"`
	// Welcome: the master wants worker-side telemetry (its admin plane
	// is bound). Workers buffer and ship span events only after seeing
	// this; an unobserved master costs workers nothing.
	Telemetry bool `json:"telemetry,omitempty"`

	// Probe.
	Payload []byte `json:"-"`

	// Assign / Result / Failure.
	JobID     int `json:"job_id,omitempty"`
	Partition int `json:"partition,omitempty"`
	// Attempt is the server-issued dispatch attempt ID. The worker echoes
	// it in the matching result/failure so the server can pair late or
	// replayed reports with the exact dispatch that caused them
	// (first-result-wins for speculative re-dispatch). The server never
	// issues attempt zero.
	Attempt int64 `json:"attempt,omitempty"`
	// Span is the task-lifecycle trace ID minted when the job was
	// submitted. It rides every assign frame and is echoed in the
	// matching result/failure/checkpoint frames so any partition's full
	// history (assign → transfer → exec → checkpoint → report, plus
	// failure/requeue/migration edges) can be reconstructed from the
	// master's trace ring or JSONL sink. Tracing is observability only,
	// never correctness.
	Span   string `json:"span,omitempty"`
	Task   string `json:"task,omitempty"`
	Params []byte `json:"-"`
	Input  []byte `json:"-"`
	// TotalLen, when larger than len(Input) on an assign frame, announces
	// a chunked transfer: assign_chunk frames follow until the assembled
	// input reaches TotalLen.
	TotalLen int64             `json:"total_len,omitempty"`
	Resume   *tasks.Checkpoint `json:"resume,omitempty"`

	Result      []byte            `json:"-"`
	ExecMs      float64           `json:"exec_ms,omitempty"`
	ProcessedKB float64           `json:"processed_kb,omitempty"`
	Checkpoint  *tasks.Checkpoint `json:"checkpoint,omitempty"`
	Error       string            `json:"error,omitempty"`
	// Digest is the worker-computed canonical SHA-256 digest of the
	// frame's payload (tasks.Digest of Result on result frames,
	// Checkpoint.Digest on checkpoint frames). The master recomputes the
	// digest from the received bytes; a mismatch with the claimed value
	// proves the payload was damaged between task output and fold, and
	// the digest — not the payload — is what replica votes compare. A
	// result or checkpoint frame without one is treated as a mismatch.
	Digest string `json:"digest,omitempty"`

	// Ping / Pong.
	Seq uint64 `json:"seq,omitempty"`

	// Epoch is the master's fencing epoch. A welcome announces it; the
	// worker echoes it on every result/failure/checkpoint frame it
	// creates from then on. The master rejects report frames stamped
	// with a different non-zero epoch: after a standby promotion they
	// belong to the previous regime (whose attempt numbering the new
	// master cannot trust), and at a resurrected old primary they prove
	// the frame's author has moved on. Zero means "no epoch tracking"
	// (replication disabled).
	Epoch int64 `json:"epoch,omitempty"`

	// Telemetry frames: the batched worker-side span events, and how
	// many events the worker's bounded buffer dropped since its last
	// telemetry frame went out — backpressure is visible, never silent.
	Events  []WorkerEvent `json:"events,omitempty"`
	Dropped int64         `json:"dropped,omitempty"`
}

// MaxFrameSize bounds a single frame (everything after the length
// prefix); larger frames indicate a corrupt stream or an abusive peer.
const MaxFrameSize = 256 << 20 // 256 MiB

// recvChunk caps how much Recv allocates before any byte of a header or
// body has arrived, so a declared length alone never commits real
// memory; past it the buffer at most doubles the bytes already landed.
const recvChunk = 1 << 20 // 1 MiB

// ErrCorrupt marks a received frame as undecodable: an impossible length
// prefix, a header length or section lengths that disagree with the
// frame (overrun, a section nothing owns, trailing bytes), a header that
// is not valid JSON — which includes any frame in the pre-section
// all-JSON layout — or a frame without a type. The stream is
// unrecoverable past such a frame (framing is lost), so the peer should
// be treated exactly like an offline failure. Distinguish it from plain
// I/O errors (connection cut), which are NOT wrapped in it.
var ErrCorrupt = errors.New("protocol: corrupt frame")

// The raw sections of a frame, in wire order. A frame that carries any
// lists all of their lengths in its header.
const (
	secPayload = iota
	secParams
	secInput
	secResult
	secResumeState
	secCheckpointState
	numSections
)

// rawSections returns the byte fields of m that ride outside the JSON
// header, in wire order.
func rawSections(m *Message) [numSections][]byte {
	s := [numSections][]byte{secPayload: m.Payload, secParams: m.Params, secInput: m.Input, secResult: m.Result}
	if m.Resume != nil {
		s[secResumeState] = m.Resume.State
	}
	if m.Checkpoint != nil {
		s[secCheckpointState] = m.Checkpoint.State
	}
	return s
}

// wireHeader is the JSON header of a frame that has raw bytes: the
// message's own JSON (the raw byte fields are tagged out of it; Resume
// and Checkpoint appear with their Offset only) plus the length of every
// section. A frame without raw bytes — every keepalive and ack — has the
// bare Message as its header: encoding/json walks an embedded struct
// about 0.3 µs slower per side, which only frames that save a base64
// pass should pay.
type wireHeader struct {
	*Message
	Sections []int `json:"sections,omitempty"`
}

// encoder is the pooled per-Send state: the frame buffer and a JSON
// encoder bound to it, so a small frame encodes without allocating.
type encoder struct {
	buf  bytes.Buffer
	json *json.Encoder // writes to buf
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.json = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledFrame is the largest frame buffer an encoder may keep when it
// returns to the pool: room for a default 4 MiB assignment chunk, while
// one oversized frame does not stay pinned behind later pings.
const maxPooledFrame = 8 << 20

// maxHeaderScratch is the largest header buffer a Conn keeps between
// Recvs; headers are a few hundred bytes, a telemetry batch a few KB.
const maxHeaderScratch = 64 << 10

// maxRecycled is how many recycled receive buffers a Conn keeps: a
// worker's dispatch window holds two assignments, a tie-break arbiter's
// one more, and a chunked transfer one chunk frame. None is larger than
// maxPooledFrame.
const maxRecycled = 4

// maxLent is how many received messages a recycling Conn remembers as
// holding one of its buffers. Past it the oldest is forgotten: recycling
// that message later only clears its fields, and its buffer is garbage.
const maxLent = 2 * maxRecycled

// frame encodes m into e.buf as [4B length][4B header length][header]
// [sections] and returns the bytes, valid until e is reused.
func (e *encoder) frame(m *Message) ([]byte, error) {
	sections := rawSections(m)
	raw := 0
	for _, s := range sections {
		raw += len(s)
	}
	h := m
	if m.Resume != nil || m.Checkpoint != nil {
		// The header names a checkpoint by its Offset alone. The swap is
		// made on a copy: the caller's Message is never written.
		c := *m
		if m.Resume != nil {
			c.Resume = &tasks.Checkpoint{Offset: m.Resume.Offset}
		}
		if m.Checkpoint != nil {
			c.Checkpoint = &tasks.Checkpoint{Offset: m.Checkpoint.Offset}
		}
		h = &c
	}
	e.buf.Reset()
	var pre [8]byte // both length fields, patched below
	e.buf.Write(pre[:])
	var err error
	if raw == 0 {
		err = e.json.Encode(h)
	} else {
		lens := make([]int, numSections)
		for i, s := range sections {
			lens[i] = len(s)
		}
		err = e.json.Encode(wireHeader{Message: h, Sections: lens})
	}
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding %s frame: %w", m.Type, err)
	}
	e.buf.Truncate(e.buf.Len() - 1) // the encoder's trailing newline
	hlen := e.buf.Len() - 8
	n := 4 + hlen + raw
	if n > MaxFrameSize {
		return nil, fmt.Errorf("protocol: %s frame of %d bytes exceeds limit", m.Type, n)
	}
	e.buf.Grow(raw)
	for _, s := range sections {
		e.buf.Write(s)
	}
	b := e.buf.Bytes()
	binary.BigEndian.PutUint32(b, uint32(n))
	binary.BigEndian.PutUint32(b[4:], uint32(hlen))
	return b, nil
}

// Conn wraps a net.Conn with frame encoding. Sends are serialized by a
// mutex so multiple goroutines (writer, keepaliver) can share it;
// Recv must be called from a single reader goroutine. Recycle may be
// called from any goroutine.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex

	// rbuf is Recv's scratch for the header bytes of the frame being
	// decoded (JSON decoding copies what it keeps), owned by the single
	// reader.
	rbuf []byte

	bufs recycler
}

// recycler carries frame bodies from Recycle, on whichever goroutine is
// done with a message, back to Recv on the reader's. It is off — Recv
// remembers nothing it hands out — until the connection's first Recycle.
type recycler struct {
	mu   sync.Mutex
	on   bool     // guarded by mu
	free [][]byte // guarded by mu; at most maxRecycled
	lent []loan   // guarded by mu; at most maxLent, oldest first
}

// loan is a body buffer Recv handed out in m's byte fields.
type loan struct {
	m   *Message
	buf []byte
}

// take removes and returns the smallest free buffer that holds n bytes,
// or nil when none does.
func (r *recycler) take(n int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	for i, b := range r.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(r.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := r.free[best]
	r.free = slices.Delete(r.free, best, best+1)
	return b
}

// lend remembers that m's byte fields live in buf, once recycling is on.
func (r *recycler) lend(m *Message, buf []byte) {
	if cap(buf) > maxPooledFrame {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	if len(r.lent) == maxLent {
		r.lent = slices.Delete(r.lent, 0, 1)
	}
	r.lent = append(r.lent, loan{m, buf})
}

// Recycle tells the connection that m, a message its Recv returned, is
// done with: m's byte fields (Resume.State and Checkpoint.State included)
// are cleared, and the buffer they lived in may receive a later frame.
// Nothing may still hold a sub-slice of them. Recycling a message this
// connection did not lend, or no longer remembers, or has already taken
// back only clears its fields. A connection whose owner never calls
// Recycle reads every frame into a buffer of its own, as if this method
// did not exist.
//
// Up to maxRecycled buffers are kept; when full, a larger buffer replaces
// the smallest, so the kept ones grow toward the largest frames. A frame
// that no kept buffer holds is read into a fresh one.
func (c *Conn) Recycle(m *Message) {
	m.Payload, m.Params, m.Input, m.Result = nil, nil, nil, nil
	if m.Resume != nil {
		m.Resume.State = nil
	}
	if m.Checkpoint != nil {
		m.Checkpoint.State = nil
	}
	r := &c.bufs
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = true
	i := slices.IndexFunc(r.lent, func(l loan) bool { return l.m == m })
	if i < 0 {
		return
	}
	buf := r.lent[i].buf
	r.lent = slices.Delete(r.lent, i, i+1)
	if len(r.free) < maxRecycled {
		r.free = append(r.free, buf)
		return
	}
	small := 0
	for j, b := range r.free {
		if cap(b) < cap(r.free[small]) {
			small = j
		}
	}
	if cap(buf) > cap(r.free[small]) {
		r.free[small] = buf
	}
}

// NewConn wraps an established connection. For TCP connections it enables
// OS-level SO_KEEPALIVE, as the prototype does, in addition to the
// application-level keepalives.
func NewConn(c net.Conn) *Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Best effort — the app-level keepalive is the real detector.
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
	}
	return &Conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}
}

// Send writes one frame: a 4-byte big-endian length, a 4-byte header
// length, the JSON header, then the raw sections. It neither modifies
// nor retains m or the slices it holds.
func (c *Conn) Send(m *Message) error {
	e := encoders.Get().(*encoder)
	defer func() {
		if e.buf.Cap() <= maxPooledFrame {
			encoders.Put(e)
		}
	}()
	frame, err := e.frame(m)
	if err != nil {
		return err
	}
	// One frame, one Write: a crash or fault-injected cut can never land
	// between the header and the body, and each frame costs one syscall.
	c.wm.Lock()
	defer c.wm.Unlock()
	if _, err := c.c.Write(frame); err != nil {
		return fmt.Errorf("protocol: writing frame: %w", err)
	}
	return nil
}

// readN reads exactly n bytes, reusing buf's capacity. A corrupt or
// hostile length must not cost MaxFrameSize (256 MiB) up front: the
// buffer starts at no more than recvChunk and then grows to at most twice
// the bytes that have actually landed.
func (c *Conn) readN(buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		off := len(buf)
		end := min(n, max(cap(buf), off+max(off, recvChunk)))
		if end > cap(buf) {
			buf = append(make([]byte, 0, end), buf...)
		}
		buf = buf[:end]
		if _, err := io.ReadFull(c.r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Recv reads one frame. The returned message's byte fields are
// sub-slices of one buffer holding this frame alone, which the message
// owns until it is recycled: a buffer Recycle handed back when one holds
// the frame, else a fresh one. A recycled buffer is memory already
// committed, so readN's guard against a hostile length still holds.
func (c *Conn) Recv() (*Message, error) {
	var pre [8]byte
	if _, err := io.ReadFull(c.r, pre[:4]); err != nil {
		return nil, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(pre[:4]))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit: %w", n, ErrCorrupt)
	}
	if n < 4 {
		return nil, fmt.Errorf("frame of %d bytes has no header length: %w", n, ErrCorrupt)
	}
	if _, err := io.ReadFull(c.r, pre[4:]); err != nil {
		return nil, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	// A frame in the old all-JSON layout fails here: its first body bytes
	// (`{"ty`) read as a header length of two gigabytes.
	hlen := int(binary.BigEndian.Uint32(pre[4:]))
	if hlen > n-4 {
		return nil, fmt.Errorf("header of %d bytes overruns its %d-byte frame: %w", hlen, n, ErrCorrupt)
	}
	hdr, err := c.readN(c.rbuf, hlen)
	if err != nil {
		return nil, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	if cap(hdr) <= maxHeaderScratch {
		c.rbuf = hdr
	}
	raw := n - 4 - hlen
	m := new(Message)
	var lens []int
	if raw == 0 {
		err = json.Unmarshal(hdr, m)
	} else {
		h := wireHeader{Message: m}
		err = json.Unmarshal(hdr, &h)
		lens = h.Sections
	}
	if err != nil {
		return nil, fmt.Errorf("decoding frame header (%v): %w", err, ErrCorrupt)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("frame missing type: %w", ErrCorrupt)
	}

	// Every byte after the header must belong to exactly one section, and
	// that is settled before any of them is read: section lengths cost no
	// memory beyond what readN commits for the frame length itself.
	var sections [numSections][]byte
	if raw > 0 {
		if len(lens) != numSections {
			return nil, fmt.Errorf("frame with %d raw bytes lists %d sections, want %d: %w", raw, len(lens), numSections, ErrCorrupt)
		}
		left := raw
		for i, l := range lens {
			if l < 0 || l > left {
				return nil, fmt.Errorf("section %d of %d bytes overruns its frame: %w", i, l, ErrCorrupt)
			}
			left -= l
		}
		if left != 0 {
			return nil, fmt.Errorf("%d bytes after the last section: %w", left, ErrCorrupt)
		}
		if (lens[secResumeState] > 0 && m.Resume == nil) || (lens[secCheckpointState] > 0 && m.Checkpoint == nil) {
			return nil, fmt.Errorf("checkpoint state section without its checkpoint: %w", ErrCorrupt)
		}
		body, err := c.readN(c.bufs.take(raw), raw)
		if err != nil {
			return nil, fmt.Errorf("protocol: reading frame body: %w", err)
		}
		c.bufs.lend(m, body)
		for i, l := range lens {
			if l > 0 {
				// Capacity stops at the section's end: appending to one
				// field must never write into its neighbour.
				sections[i] = body[:l:l]
			}
			body = body[l:]
		}
	}
	// Unconditional, so checkpoint state can only ever come from a
	// section, never from a "state" member smuggled into the header.
	m.Payload, m.Params = sections[secPayload], sections[secParams]
	m.Input, m.Result = sections[secInput], sections[secResult]
	if m.Resume != nil {
		m.Resume.State = sections[secResumeState]
	}
	if m.Checkpoint != nil {
		m.Checkpoint.State = sections[secCheckpointState]
	}
	return m, nil
}

// SetReadDeadline bounds the next Recv.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }
