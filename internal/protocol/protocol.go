// Package protocol defines the wire protocol between the CWC central
// server and the phone workers: length-prefixed frames over a persistent
// TCP connection, each a compact binary header (package wire) followed by
// the frame's byte payloads as sections (the prototype's Java NIO server
// spoke an equivalent custom protocol). Payload bytes cross the link
// once, never inflated — the scheduler plans on measured per-KB transfer
// time — and an assignment's input and a result cross Huffman-coded,
// about half their size on text. docs/protocol.md has the byte layout.
//
// The connection carries registration, iperf-style bandwidth probes, task
// assignment (executable name + parameters + input partition, optionally a
// migrated checkpoint), completion and failure reports, and application-
// level keepalives — the paper's offline-failure detector (30 s period,
// 3 tolerated misses).
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"cwc/internal/tasks"
	"cwc/internal/wire"
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
	TSMs      int64
	Kind      EventKind
	Span      string
	Job       int
	Partition int
	Bytes     int64
	Ms        float64
	Detail    string
	Epoch     int64
}

// EventCodes are the event kinds' one-byte wire codes: their indexes.
// Code 0, the empty kind, is an event with no kind field. It is the one
// list of kinds: the decoder refuses any other code, and the metric
// families labelled by kind have one series per entry.
var EventCodes = []EventKind{"", EventAssignRecv, EventExecStart, EventExecFinish,
	EventThrottlePause, EventCkptFlush, EventCkptAck, EventDrainHandback, EventDial}

// Wire names the event's fields for the codec, in tag order.
func (e *WorkerEvent) Wire(c *wire.Codec) {
	wire.Int(c, 1, &e.TSMs)
	wire.Code(c, 2, &e.Kind, EventCodes)
	wire.String(c, 3, &e.Span)
	wire.Int(c, 4, &e.Job)
	wire.Int(c, 5, &e.Partition)
	wire.Int(c, 6, &e.Bytes)
	c.Float(7, &e.Ms)
	wire.String(c, 8, &e.Detail)
	wire.Int(c, 9, &e.Epoch)
}

// Message is the single frame shape; fields are populated per Type.
// A union keeps the framing trivial and the protocol self-describing.
//
// Payload, Params, Input, Result and the State of Resume and Checkpoint
// are not part of the header: they ride after it as raw sections (see
// Wire), and Recv hands them out as sub-slices of one receive buffer. A
// received message therefore owns its byte fields until it is given back
// (Conn.Recycle, Conn.Reuse), but they share a backing array — holding
// one keeps the whole frame alive.
//
// A Message has one owner at a time. A sender owns what it passes to
// Send, which neither modifies nor retains it, so one Message can carry
// frame after frame. A receiver owns what Recv returns until it gives
// the message back to the connection: with Recycle, struct and receive
// buffer both; with Reuse, the struct alone, when something still holds
// a sub-slice of its byte fields. Either way the struct is zeroed and
// serves a later Recv, so nothing may read it afterwards.
type Message struct {
	Type Type

	// Hello / Welcome.
	// Token authenticates the phone to the server when the deployment
	// configures a shared enrolment secret.
	Token   string
	Model   string
	CPUMHz  float64
	RAMMB   int
	PhoneID int
	// Rejoin marks a hello as a reconnection: the phone previously held
	// PhoneID and asks to resume that identity (checkpointed work and
	// bandwidth estimates survive the reconnect).
	Rejoin bool
	// Welcome: keepalive parameters the worker should expect.
	KeepaliveMs int
	// Welcome: the checkpoint-streaming policy workers follow — stream a
	// checkpoint every CkptEveryKB of processed input and/or every
	// CkptEveryMs of wall time (zero disables that trigger). The master
	// alone sets it.
	CkptEveryKB int
	CkptEveryMs int
	// Welcome: the master wants worker-side telemetry (its admin plane
	// is bound). Workers buffer and ship span events only after seeing
	// this; an unobserved master costs workers nothing.
	Telemetry bool

	// Probe.
	Payload []byte

	// Assign / Result / Failure.
	JobID     int
	Partition int
	// Attempt is the server-issued dispatch attempt ID. The worker echoes
	// it in the matching result/failure so the server can pair late or
	// replayed reports with the exact dispatch that caused them
	// (first-result-wins for speculative re-dispatch). The server never
	// issues attempt zero.
	Attempt int64
	// Span is the task-lifecycle trace ID minted when the job was
	// submitted. It rides every assign frame and is echoed in the
	// matching result/failure/checkpoint frames so any partition's full
	// history (assign → transfer → exec → checkpoint → report, plus
	// failure/requeue/migration edges) can be reconstructed from the
	// master's trace ring or JSONL sink. Tracing is observability only,
	// never correctness.
	Span   string
	Task   string
	Params []byte
	Input  []byte
	// TotalLen, when larger than len(Input) on an assign frame, announces
	// a chunked transfer: assign_chunk frames follow until the assembled
	// input reaches TotalLen.
	TotalLen int64
	Resume   *tasks.Checkpoint

	Result      []byte
	ExecMs      float64
	ProcessedKB float64
	Checkpoint  *tasks.Checkpoint
	Error       string
	// Digest is the worker-computed canonical SHA-256 digest of the
	// frame's payload (tasks.Digest of Result on result frames,
	// Checkpoint.Digest on checkpoint frames). The master recomputes the
	// digest from the received bytes; a mismatch with the claimed value
	// proves the payload was damaged between task output and fold, and
	// the digest — not the payload — is what replica votes compare. A
	// result or checkpoint frame without one is treated as a mismatch.
	Digest tasks.Sum

	// Ping / Pong.
	Seq uint64

	// Epoch is the master's fencing epoch. A welcome announces it; the
	// worker echoes it on every result/failure/checkpoint frame it
	// creates from then on. The master rejects report frames stamped
	// with a different non-zero epoch: after a standby promotion they
	// belong to the previous regime (whose attempt numbering the new
	// master cannot trust), and at a resurrected old primary they prove
	// the frame's author has moved on. Zero means "no epoch tracking"
	// (replication disabled).
	Epoch int64

	// Telemetry frames: the batched worker-side span events, and how
	// many events the worker's bounded buffer dropped since its last
	// telemetry frame went out — backpressure is visible, never silent.
	Events  []WorkerEvent
	Dropped int64
}

// TypeCodes are the frame types' one-byte wire codes: their indexes.
// Code 0, the empty type, is a header with no type field. It is the one
// list of frame types: the decoder refuses any other code, and the
// metric families labelled by type have one series per entry.
var TypeCodes = []Type{"", TypeHello, TypeWelcome, TypeProbe, TypeProbeAck,
	TypeAssign, TypeAssignChunk, TypeResult, TypeFailure, TypePing, TypePong,
	TypeBye, TypeCheckpoint, TypeCheckpointAck, TypeDrain, TypeTelemetry}

// Wire names the header's fields for the codec, in tag order. The tags
// are the protocol (docs/protocol.md lists them): the fields every assign
// and report carries hold tags 1–15, which take a one-byte key. An
// assignment's input and a result travel Huffman-coded when that makes
// them smaller — the paper's inputs are text — and tag 32 then holds
// their raw length; every other section, a probe's payload included,
// travels as it is.
func (m *Message) Wire(c *wire.Codec) {
	wire.Code(c, 1, &m.Type, TypeCodes)
	wire.Int(c, 2, &m.JobID)
	wire.Int(c, 3, &m.Partition)
	wire.Int(c, 4, &m.Attempt)
	wire.String(c, 5, &m.Span)
	wire.String(c, 6, &m.Task)
	c.Section(7, &m.Params)
	c.Coded(8, &m.Input, m.Type == TypeAssign || m.Type == TypeAssignChunk)
	c.Coded(9, &m.Result, m.Type == TypeResult)
	c.Float(10, &m.ExecMs)
	c.Float(11, &m.ProcessedKB)
	wire.Digest(c, 12, &m.Digest)
	c.Uint(13, &m.Seq)
	wire.Int(c, 14, &m.Epoch)
	wire.Opt(c, 15, &m.Resume)
	wire.Opt(c, 16, &m.Checkpoint)
	wire.Int(c, 17, &m.TotalLen)
	wire.String(c, 18, &m.Error)
	c.Section(19, &m.Payload)
	wire.String(c, 20, &m.Token)
	wire.String(c, 21, &m.Model)
	c.Float(22, &m.CPUMHz)
	wire.Int(c, 23, &m.RAMMB)
	wire.Int(c, 24, &m.PhoneID)
	c.Bool(25, &m.Rejoin)
	wire.Int(c, 26, &m.KeepaliveMs)
	wire.Int(c, 27, &m.CkptEveryKB)
	wire.Int(c, 28, &m.CkptEveryMs)
	c.Bool(29, &m.Telemetry)
	wire.List(c, 30, &m.Events)
	wire.Int(c, 31, &m.Dropped)
	c.RawLen(32)
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
// frame (overrun, bytes no section owns), a header the codec refuses —
// which includes a frame of any earlier layout — or a frame without a
// type. The stream is unrecoverable past such a frame (framing is lost),
// so the peer should be treated exactly like an offline failure.
// Distinguish it from plain I/O errors (connection cut), which are NOT
// wrapped in it.
var ErrCorrupt = errors.New("protocol: corrupt frame")

// maxHeaderScratch is the largest header buffer a Conn keeps between
// Recvs; headers are tens of bytes, a telemetry batch a few KB.
const maxHeaderScratch = 64 << 10

// maxRecycled is how many recycled receive buffers a Conn keeps: a
// worker's dispatch window holds two assignments, a tie-break arbiter's
// one more, and a chunked transfer one chunk frame. None is larger than
// maxPooledFrame. It is also how many given-back Message structs a Conn
// keeps for Recv.
const maxRecycled = 4

// maxPooledFrame is the largest receive buffer a Conn keeps: room for a
// default 4 MiB assignment chunk.
const maxPooledFrame = 8 << 20

// maxLent is how many received messages a recycling Conn remembers as
// holding one of its buffers. Past it the oldest is forgotten: recycling
// that message later only zeroes it, and its buffer is garbage.
const maxLent = 2 * maxRecycled

// Conn wraps a net.Conn with frame encoding. Sends are serialized by a
// mutex so multiple goroutines (a writer, a read loop, shutdown) can share it;
// Recv must be called from a single reader goroutine. Recycle and Reuse
// may be called from any goroutine.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex

	// rbuf is Recv's scratch for the header bytes of the frame being
	// decoded (decoding copies what it keeps), pre for its two lengths
	// (on Recv's stack it would escape through io.ReadFull), and dec its
	// decoder, all owned by the single reader.
	rbuf []byte
	pre  [8]byte
	dec  wire.Codec

	// zbuf is Recv's scratch for a frame's coded bytes, kept up to
	// maxPooledFrame; owned by the single reader.
	zbuf []byte

	bufs recycler
}

// recycler carries what a message's owner gives back, on whichever
// goroutine is done with it, to Recv on the reader's: zeroed structs,
// always, and frame bodies once the connection's first Recycle has
// switched body recycling on — until then Recv remembers no buffer it
// hands out.
type recycler struct {
	mu    sync.Mutex
	on    bool       // guarded by mu
	free  [][]byte   // guarded by mu; at most maxRecycled
	lent  []loan     // guarded by mu; at most maxLent, oldest first
	spare []*Message // guarded by mu; zeroed, at most maxRecycled
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

// message returns a zeroed Message for Recv: a spare, else a new one.
func (r *recycler) message() *Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.spare); n > 0 {
		m := r.spare[n-1]
		r.spare = r.spare[:n-1]
		return m
	}
	return new(Message)
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

// giveBack zeroes m and keeps it for Recv, and returns the buffer m's
// byte fields were lent, if any. The loan ends either way: m's struct
// will hold another frame. Caller holds r.mu.
func (r *recycler) giveBack(m *Message) (buf []byte) {
	var zero Message
	*m = zero
	if i := slices.IndexFunc(r.lent, func(l loan) bool { return l.m == m }); i >= 0 {
		buf = r.lent[i].buf
		r.lent = slices.Delete(r.lent, i, i+1)
	}
	if len(r.spare) < maxRecycled && !slices.Contains(r.spare, m) {
		r.spare = append(r.spare, m)
	}
	return buf
}

// Recycle tells the connection that m, a message its Recv returned, is
// done with: m's byte fields (Resume.State and Checkpoint.State included)
// are cleared, m is zeroed and kept for a later Recv, and the buffer its
// byte fields lived in may receive a later frame. Nothing may still hold
// m or a sub-slice of its byte fields. Recycling a message this
// connection did not lend, or no longer remembers, or has already taken
// back gives back its struct alone. A connection whose owner never calls
// Recycle reads every frame into a buffer of its own, as if this method
// did not exist.
//
// Up to maxRecycled buffers are kept; when full, a larger buffer replaces
// the smallest, so the kept ones grow toward the largest frames. A frame
// that no kept buffer holds is read into a fresh one.
func (c *Conn) Recycle(m *Message) {
	for _, ck := range []*tasks.Checkpoint{m.Resume, m.Checkpoint} {
		if ck != nil {
			ck.State = nil
		}
	}
	r := &c.bufs
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = true
	buf := r.giveBack(m)
	if buf == nil {
		return
	}
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

// Reuse gives m's struct back to the connection, zeroed, for a later
// Recv — and not the buffer its byte fields live in, which stays with
// whatever still holds a sub-slice of them (a folded partial, a kept
// checkpoint) and is garbage once nothing does. Nothing may still hold
// m itself. Reuse never switches body recycling on.
func (c *Conn) Reuse(m *Message) {
	c.bufs.mu.Lock()
	defer c.bufs.mu.Unlock()
	c.bufs.giveBack(m)
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

// Send writes one frame: a 4-byte big-endian length, then m as one wire
// unit — a 4-byte header length, the header, the raw sections. It neither
// modifies nor retains m or the slices it holds.
func (c *Conn) Send(m *Message) error {
	e := wire.Get()
	defer e.Release()
	frame, err := wire.Encode(e, 4, m)
	if err != nil {
		return fmt.Errorf("protocol: encoding %s frame: %w", m.Type, err)
	}
	if n := len(frame) - 4 + e.Expansion(); n > MaxFrameSize {
		return fmt.Errorf("protocol: %s frame of %d bytes exceeds limit", m.Type, n)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
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

// Recv reads one frame into a Message Recycle or Reuse gave back when
// there is one, else a new one. The returned message's byte fields are
// sub-slices of one buffer holding this frame alone, which the message
// owns until it is recycled: a buffer Recycle handed back when one holds
// the frame, else a fresh one. A recycled buffer is memory already
// committed, so readN's guard against a hostile length still holds.
func (c *Conn) Recv() (*Message, error) {
	pre := c.pre[:]
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
	// A frame in the all-JSON layout before sections fails here: its first
	// body bytes (`{"ty`) read as a header length of two gigabytes.
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
	// Every byte after the header must belong to exactly one section, and
	// that is settled by the header alone, before any of them is read:
	// section lengths cost no memory beyond what readN commits for the
	// frame length itself. A header of an earlier layout, JSON, fails on
	// its first byte: '{' is a key of wire type 3.
	raw := n - 4 - hlen
	m := c.bufs.message()
	if err := wire.DecodeHeader(&c.dec, hdr, raw, m); err != nil {
		return nil, fmt.Errorf("decoding frame header (%v): %w", err, ErrCorrupt)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("frame missing type: %w", ErrCorrupt)
	}
	switch x := c.dec.Expansion(); {
	case raw+x > MaxFrameSize:
		return nil, fmt.Errorf("frame decodes to %d bytes, over the limit: %w", raw+x, ErrCorrupt)
	case x > 0:
		// The coded bytes land in the connection's scratch and decode into
		// the frame's buffer. The raw length, at most eight times those
		// bytes, sizes that buffer only once they have all arrived.
		coded, err := c.readN(c.zbuf, raw)
		if err != nil {
			return nil, fmt.Errorf("protocol: reading frame body: %w", err)
		}
		if cap(coded) <= maxPooledFrame {
			c.zbuf = coded
		}
		body := c.bufs.take(raw + x)
		if body == nil {
			body = make([]byte, raw+x)
		}
		body = body[:raw+x]
		if err := c.dec.Unpack(body, coded); err != nil {
			return nil, fmt.Errorf("decoding frame body (%v): %w", err, ErrCorrupt)
		}
		c.bufs.lend(m, body)
	case raw > 0:
		body, err := c.readN(c.bufs.take(raw), raw)
		if err != nil {
			return nil, fmt.Errorf("protocol: reading frame body: %w", err)
		}
		c.bufs.lend(m, body)
		c.dec.Sections(body)
	}
	return m, nil
}

// SetReadDeadline bounds the next Recv.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }
