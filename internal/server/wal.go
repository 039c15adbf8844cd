package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// The master's write-ahead log: every mutation of durable state (jobs,
// queued work, partials, dead letters) is appended as one record before
// the acknowledgement that depends on it, so a master killed at any
// instant replays snapshot + log and resumes with nothing acknowledged
// lost. The log holds inputs and what phones returned, each said once: a
// job's result is derived from its partials, at the round sweep and at
// recovery, and is never logged. An input byte is logged once, raw, in
// its job's submit record; every later record that concerns a byte range
// (round, partial, migrate) names it by reference — a fresh item's
// sequence number plus offset and length, or an open range's key — and
// replay resolves the reference against the state the earlier records
// built. Compaction
// bounds the growth by folding the log into a walState snapshot.
//
// Durable state is a pure reduction (walReducer) over three collections:
//
//	jobs   — submissions and their accumulated partials
//	fresh  — queued work items that have never been dispatched,
//	         identified by a durable per-item sequence number
//	open   — partitioned byte ranges at or past dispatch, identified
//	         by their speculation key; an open range with no later
//	         report/dead-letter record is re-queued on recovery, whole
//	         and atomic, with the freshest checkpoint the log holds
//
// There is one reducer. The live master embeds a walReducer as its
// durable state and changes it only by folding the record it is logging
// (walAppend, walAppendErr); replay and the hot standby fold the same
// records, decoded from the log, through the same function
// (walReducer.fold). A snapshot is the reducer's own serialisation
// wherever it is cut. Every record changes state, and every one is
// written under m.mu in the order it is folded.
//
// A reference is only as good as the record that defined its range, so
// a record the log failed to take may not simply be carried on from:
// the next record is written only after live state has been folded
// into a fresh snapshot (Master.walStale).

// WAL record types. A retired number keeps its line, unnamed, and is
// never reused: a record of it in an old log is refused at recovery as an
// unknown type, never decoded as something else.
const (
	walRecSubmit     uint8 = 1  // job accepted (gates the Submit ack)
	walRecRound      uint8 = 2  // partitions created at a scheduling instant
	_                uint8 = 3  // retired: dispatch, an audit record no fold read
	walRecReport     uint8 = 4  // partition result recorded
	walRecPartial    uint8 = 5  // failure folded into a partial result + remainder
	walRecMigrate    uint8 = 6  // open range's new resume state and retry count
	walRecDeadLetter uint8 = 7  // work item abandoned after its retry budget
	_                uint8 = 8  // retired: finish, a job's aggregate (derived from its partials)
	_                uint8 = 9  // retired: streamed checkpoint (now a migrate record)
	walRecDrain      uint8 = 10 // proactive-drain state transition for a phone
	walRecEpoch      uint8 = 11 // fencing epoch bumped (replication enabled or standby promoted)
	walRecRegister   uint8 = 12 // phone ID issued to a fresh registration
	walRecReputation uint8 = 13 // per-phone result-integrity reputation update / quarantine

	// walRecEnd is one past the last record type. iota counts the lines
	// above it, so a type added to this block moves it without being
	// asked, and TestWALFoldLiveEqualsDecoded then refuses to pass until
	// the new type has a live record that decodes and folds.
	walRecEnd = uint8(iota) + 1
)

// A record's payload is one wire unit (package wire), the shape of a
// protocol frame's body:
//
//	[4B header length BE] [header] [sections]
//
// The header is the record's fields as tag + varint fields, each
// struct's tags named once in its Wire method; its bulk byte fields
// (input, params, partial, checkpoint state) are sections, which ride
// behind the header at their own size. A payload of an earlier layout is
// refused: a JSON header on its first byte, the all-JSON payload from
// its first four (`{"jo` reads as a header of 2 GB).

// walRecord is implemented by every record struct.
type walRecord interface {
	// typ is the record type the struct is logged under. The struct names
	// it itself, once, so no call site can log one type and fold another;
	// decodeWAL holds the way back.
	typ() uint8
	wire.Fields
}

// walRegisterRec keeps phone IDs monotone across recovery *and*
// failover: a promoted standby (or restarted master) must never issue
// an ID that a phone from the previous regime still holds, or the two
// phones fight over one registration through endless rejoin takeovers.
// Drain and reputation records also carry phone IDs, but only this record
// covers a phone that registered and did nothing else. Model is
// the phone's self-reported identity, letting a recovered master honor
// a rejoin under the old ID — without it, reputation and quarantine
// state (record 13) would detach from the phone at the first master
// restart, because the phone would be reissued a fresh ID.
type walRegisterRec struct {
	PhoneID int
	Model   string
}

func (*walRegisterRec) typ() uint8 { return walRecRegister }

func (p *walRegisterRec) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.PhoneID)
	wire.String(c, 2, &p.Model)
}

// walEpochRec persists a fencing-epoch bump. The record is durable (and
// shipped to standbys) before the new epoch takes effect, so no two
// master regimes can ever share an epoch: a resurrected primary replays
// the epochs it bumped, never the one its standby minted at promotion.
type walEpochRec struct {
	Epoch int64
}

func (*walEpochRec) typ() uint8 { return walRecEpoch }

func (p *walEpochRec) Wire(c *wire.Codec) { wire.Int(c, 1, &p.Epoch) }

// walSubmit is the one record that carries input bytes: every later
// reference to any part of a job's input resolves, directly or through
// the ranges cut from it, to this record's Input section.
type walSubmit struct {
	JobID  int
	Seq    int64
	Task   string
	Params []byte
	Input  []byte
	Atomic bool
}

func (*walSubmit) typ() uint8 { return walRecSubmit }

func (p *walSubmit) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Seq)
	wire.String(c, 3, &p.Task)
	c.Section(4, &p.Params)
	c.Section(5, &p.Input)
	c.Bool(6, &p.Atomic)
}

// walRoundItem opens one keyed byte range. Cut from a fresh item it is
// bytes [Off, Off+Len) of item FromSeq's input (and inherits that
// item's resume state when it is the whole item); with FromSeq zero it
// is a range that is already open under Key, re-entering a round with
// its bytes and resume state as replay holds them.
type walRoundItem struct {
	Key     int64
	FromSeq int64
	Off     int64
	Len     int64
	Retries int
	// Partition is the timeline identity of this byte range: a promoted
	// standby re-dispatches a recovered open range under the same
	// partition number, so the merged trace shows one row per range
	// across the failover instead of a ghost row per regime.
	Partition int
}

func (it *walRoundItem) Wire(c *wire.Codec) {
	wire.Int(c, 1, &it.Key)
	wire.Int(c, 2, &it.FromSeq)
	wire.Int(c, 3, &it.Off)
	wire.Int(c, 4, &it.Len)
	wire.Int(c, 5, &it.Retries)
	wire.Int(c, 6, &it.Partition)
}

// walRound consumes every fresh item its Items name: the ranges cut
// from one item tile it exactly, so the item continues as those keyed
// ranges and nothing else.
type walRound struct {
	Items []walRoundItem
}

func (*walRound) typ() uint8 { return walRecRound }

func (p *walRound) Wire(c *wire.Codec) { wire.List(c, 1, &p.Items) }

type walReport struct {
	JobID   int
	Key     int64
	Bytes   int64
	Partial []byte
}

func (*walReport) typ() uint8 { return walRecReport }

func (p *walReport) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Key)
	wire.Int(c, 3, &p.Bytes)
	c.Section(4, &p.Partial)
}

type walPartialRec struct {
	JobID   int
	Key     int64
	Offset  int64
	Partial []byte
	// RemainderSeq, when set, re-queues the unprocessed suffix — the
	// open range's bytes from Offset on — as a fresh item under this
	// sequence number; zero when the remainder was empty or immediately
	// dead-lettered.
	RemainderSeq int64
	Retries      int
}

func (*walPartialRec) typ() uint8 { return walRecPartial }

func (p *walPartialRec) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Key)
	wire.Int(c, 3, &p.Offset)
	c.Section(4, &p.Partial)
	wire.Int(c, 5, &p.RemainderSeq)
	wire.Int(c, 6, &p.Retries)
}

// walMigrate updates a range that stays open under its key: new resume
// state and retry count, same bytes. A whole hand-back, a kept failure
// checkpoint and a streamed checkpoint are all logged as one. Resume's
// offset rides in the header and its state as a section.
type walMigrate struct {
	JobID     int
	Key       int64
	Resume    *tasks.Checkpoint
	Retries   int
	Partition int // see walRoundItem.Partition
}

func (*walMigrate) typ() uint8 { return walRecMigrate }

func (p *walMigrate) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Key)
	wire.Opt(c, 3, &p.Resume)
	wire.Int(c, 4, &p.Retries)
	wire.Int(c, 5, &p.Partition)
}

type walDeadLetterRec struct {
	JobID   int
	Key     int64
	Seq     int64
	Task    string
	Bytes   int
	Retries int
	Reason  string
}

func (*walDeadLetterRec) typ() uint8 { return walRecDeadLetter }

func (p *walDeadLetterRec) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Key)
	wire.Int(c, 3, &p.Seq)
	wire.String(c, 4, &p.Task)
	wire.Int(c, 5, &p.Bytes)
	wire.Int(c, 6, &p.Retries)
	wire.String(c, 7, &p.Reason)
}

// walReputationRec logs one phone's result-integrity reputation after a
// verification event (vote won or lost, audit outcome, digest mismatch).
// Each record carries the full post-event state, so replaying only the
// latest record per phone — or all of them in order — converges.
type walReputationRec struct {
	PhoneID     int
	Score       float64
	Quarantined bool
}

func (*walReputationRec) typ() uint8 { return walRecReputation }

func (p *walReputationRec) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.PhoneID)
	c.Float(2, &p.Score)
	c.Bool(3, &p.Quarantined)
}

// walDrainRec logs one proactive-drain state transition so recovery
// preserves which phones were being drained: State is drainStarted,
// drainCompleted, or drainCleared.
type walDrainRec struct {
	PhoneID int
	State   string
}

func (*walDrainRec) typ() uint8 { return walRecDrain }

func (p *walDrainRec) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.PhoneID)
	wire.String(c, 2, &p.State)
}

// decodeWAL parses a logged record into its struct — the read side of
// each struct's typ. It runs on replay and on the standby only: the live
// master folds the struct it built. The record types are the cases of
// this one switch, so two sharing a wire value do not compile.
func decodeWAL(rec wal.Record) (walRecord, error) {
	var v walRecord
	switch rec.Type {
	case walRecSubmit:
		v = new(walSubmit)
	case walRecRound:
		v = new(walRound)
	case walRecReport:
		v = new(walReport)
	case walRecPartial:
		v = new(walPartialRec)
	case walRecMigrate:
		v = new(walMigrate)
	case walRecDeadLetter:
		v = new(walDeadLetterRec)
	case walRecDrain:
		v = new(walDrainRec)
	case walRecEpoch:
		v = new(walEpochRec)
	case walRecRegister:
		v = new(walRegisterRec)
	case walRecReputation:
		v = new(walReputationRec)
	default:
		return nil, fmt.Errorf("unknown record type %d", rec.Type)
	}
	if err := wire.Decode(rec.Payload, v); err != nil {
		return nil, fmt.Errorf("decoding record type %d: %w", rec.Type, err)
	}
	return v, nil
}

// walJobRec is a job's durable state: the reducer's entry, the live
// master's and the compaction snapshot's are this one struct.
type walJobRec struct {
	ID         int      `json:"id"`
	Task       string   `json:"task"`
	Params     []byte   `json:"params,omitempty"`
	TotalBytes int64    `json:"total_bytes"`
	Covered    int64    `json:"covered"`
	Partials   [][]byte `json:"partials,omitempty"`

	// Live only: never folded, never serialised. task is Task and Params
	// instantiated, set where a job enters a master (Submit, recovery).
	// Final, Done and Failure are derived from Partials (finish) once the
	// job is fully covered; Failure is a terminal aggregation error (Done
	// with no Final), which JobFailure surfaces to the Submit caller.
	task    tasks.Task
	Final   []byte `json:"-"`
	Done    bool   `json:"-"`
	Failure string `json:"-"`
}

// walItemRec is a byte range's durable state, in one of two lives. A
// fresh item (Seq set) is queued work no round has cut yet. An open range
// (Key set) is one issued, unsettled speculation key: a round record
// opens it; a folded result, the partial-result shortcut or a dead letter
// closes it. Attempts, queued copies and vote groups point at the open
// entry; one that still holds the pointer after the entry left the table
// reads it as settled (settledLocked), so per-key memory is bounded by
// the work in flight.
type walItemRec struct {
	Seq   int64  `json:"seq,omitempty"`
	Key   int64  `json:"key,omitempty"`
	JobID int    `json:"job_id"`
	Input []byte `json:"input"`
	// Resume is the furthest resume state the range holds: shipped with it,
	// reported by a failure, or streamed mid-execution. Any re-dispatch
	// resumes from here.
	Resume  *tasks.Checkpoint `json:"resume,omitempty"`
	Atomic  bool              `json:"atomic,omitempty"`
	Retries int               `json:"retries,omitempty"`
	// Partition preserves the range's timeline row across recovery; see
	// walRoundItem.Partition.
	Partition int `json:"partition,omitempty"`

	// Live only, written outside fold, never serialised — replay needs
	// neither. queued: a copy of the range waits in pending, so a
	// hand-back has nothing to add.
	queued bool
	// shared: a second execution may deliver the range whole — a copy
	// queued at a blown deadline, or the replicas of a verification vote
	// — so nothing may credit part of it (the partial-result shortcut)
	// and no further copy is issued.
	shared bool
}

// walReducer is the master's durable state — everything a snapshot
// holds. fold is the only function that writes it: the live master
// (which embeds one), replay and the standby's WALFold all go through it.
type walReducer struct {
	nextJobID   int
	nextSeq     int64
	nextKey     int64
	nextPhoneID int
	jobs        map[int]*walJobRec
	fresh       map[int64]*walItemRec // by item sequence number
	// open is the one per-key table: an entry per issued, unsettled
	// speculation key. A key that is not in it is settled.
	open map[int64]*walItemRec
	dead []DeadLetter
	// drains is the proactive-drain ledger: phone ID -> drainStarted or
	// drainCompleted. Entries exclude the phone from placement until a new
	// charge session clears them.
	drains map[int]string
	// reputation is each phone's EWMA integrity score (absent: 1.0);
	// quarantined phones are hard-vetoed from placement (verify.go).
	reputation  map[int]float64
	quarantined map[int]bool
	// identity maps every issued phone ID to the model that claimed it, so
	// a rejoin after master recovery keeps its ID — and with it the
	// reputation and quarantine the log restored.
	identity map[int]string
	// epoch is the fencing epoch: 0 until replication assigns one, then
	// strictly monotone across regimes. Report frames stamped with a
	// different non-zero epoch are rejected (see fenced).
	epoch int64
}

func newWALReducer() *walReducer {
	return &walReducer{
		nextJobID:   1,
		jobs:        map[int]*walJobRec{},
		fresh:       map[int64]*walItemRec{},
		open:        map[int64]*walItemRec{},
		drains:      map[int]string{},
		reputation:  map[int]float64{},
		quarantined: map[int]bool{},
		identity:    map[int]string{},
	}
}

// bumpPhone keeps phone IDs monotone: no ID any record or snapshot
// mentions is ever issued again.
func (r *walReducer) bumpPhone(id int) { r.nextPhoneID = max(r.nextPhoneID, id+1) }

func (r *walReducer) job(id int) (*walJobRec, error) {
	js, ok := r.jobs[id]
	if !ok {
		return nil, fmt.Errorf("record references unknown job %d", id)
	}
	return js, nil
}

// apply folds one logged record: decode, then fold.
func (r *walReducer) apply(rec wal.Record) error {
	v, err := decodeWAL(rec)
	if err != nil {
		return err
	}
	return r.fold(v)
}

// fold is the one place durable state changes. A reference that does not
// resolve — an unknown sequence number or key, a range outside its item —
// fails the record and leaves the state as it was: the log and the state
// it describes have parted, and nothing folded past that point could be
// trusted.
func (r *walReducer) fold(rec walRecord) error {
	switch p := rec.(type) {
	case *walSubmit:
		if _, dup := r.jobs[p.JobID]; dup {
			return fmt.Errorf("duplicate submit for job %d", p.JobID)
		}
		r.jobs[p.JobID] = &walJobRec{
			ID: p.JobID, Task: p.Task, Params: p.Params, TotalBytes: int64(len(p.Input)),
		}
		r.fresh[p.Seq] = &walItemRec{Seq: p.Seq, JobID: p.JobID, Input: p.Input, Atomic: p.Atomic}
		r.nextJobID = max(r.nextJobID, p.JobID+1)
		r.nextSeq = max(r.nextSeq, p.Seq)
	case *walRound:
		// Resolve every reference before anything the record consumes is
		// deleted; the opened ranges are sub-slices, never copies.
		opened := make([]*walItemRec, 0, len(p.Items))
		cut := map[int64]int64{} // fresh seq -> bytes re-opened as keyed ranges
		for _, it := range p.Items {
			if it.FromSeq == 0 {
				if _, ok := r.open[it.Key]; !ok {
					return fmt.Errorf("round: key %d is not an open range", it.Key)
				}
				continue
			}
			src, ok := r.fresh[it.FromSeq]
			if !ok {
				return fmt.Errorf("round: key %d is cut from unknown fresh item %d", it.Key, it.FromSeq)
			}
			n := int64(len(src.Input))
			if it.Off < 0 || it.Len <= 0 || it.Off > n || it.Len > n-it.Off {
				return fmt.Errorf("round: key %d names bytes [%d,+%d) of the %d-byte fresh item %d",
					it.Key, it.Off, it.Len, n, it.FromSeq)
			}
			end := it.Off + it.Len
			piece := &walItemRec{
				Key: it.Key, JobID: src.JobID, Input: src.Input[it.Off:end:end],
				Atomic: true, Retries: it.Retries, Partition: it.Partition,
			}
			if it.Len == n {
				piece.Resume = src.Resume
			}
			opened = append(opened, piece)
			cut[it.FromSeq] += it.Len
		}
		for seq, n := range cut {
			if total := int64(len(r.fresh[seq].Input)); n != total {
				return fmt.Errorf("round: ranges cut from fresh item %d hold %d of its %d bytes", seq, n, total)
			}
		}
		for seq := range cut {
			delete(r.fresh, seq)
		}
		for _, it := range opened {
			r.open[it.Key] = it
			r.nextKey = max(r.nextKey, it.Key)
		}
		// A range already open re-enters the round in place: whatever points
		// at its entry keeps pointing at the open range.
		for _, it := range p.Items {
			if it.FromSeq == 0 {
				cur := r.open[it.Key]
				cur.Retries, cur.Partition = it.Retries, it.Partition
			}
		}
	case *walReport:
		js, err := r.job(p.JobID)
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		delete(r.open, p.Key)
		js.Covered += p.Bytes
		js.Partials = append(js.Partials, p.Partial)
	case *walPartialRec:
		js, err := r.job(p.JobID)
		if err != nil {
			return fmt.Errorf("partial: %w", err)
		}
		if p.RemainderSeq != 0 {
			src, ok := r.open[p.Key]
			if !ok || src.JobID != p.JobID {
				return fmt.Errorf("partial: remainder of key %d, which is not an open range of job %d", p.Key, p.JobID)
			}
			if p.Offset < 0 || p.Offset >= int64(len(src.Input)) {
				return fmt.Errorf("partial: remainder of key %d from offset %d of %d bytes", p.Key, p.Offset, len(src.Input))
			}
			r.fresh[p.RemainderSeq] = &walItemRec{
				Seq: p.RemainderSeq, JobID: p.JobID, Input: src.Input[p.Offset:], Retries: p.Retries,
			}
			r.nextSeq = max(r.nextSeq, p.RemainderSeq)
		}
		delete(r.open, p.Key)
		js.Covered += p.Offset
		js.Partials = append(js.Partials, p.Partial)
	case *walMigrate:
		cur, ok := r.open[p.Key]
		if !ok || cur.JobID != p.JobID {
			return fmt.Errorf("migrate: key %d is not an open range of job %d", p.Key, p.JobID)
		}
		cur.Resume, cur.Retries, cur.Partition = p.Resume, p.Retries, p.Partition
	case *walDeadLetterRec:
		delete(r.open, p.Key)
		delete(r.fresh, p.Seq)
		r.dead = append(r.dead, DeadLetter{
			JobID: p.JobID, Task: p.Task, Bytes: p.Bytes, Retries: p.Retries, Reason: p.Reason,
		})
	case *walDrainRec:
		switch p.State {
		case drainStarted, drainCompleted:
			r.drains[p.PhoneID] = p.State
		case drainCleared:
			delete(r.drains, p.PhoneID)
		default:
			return fmt.Errorf("drain record for phone %d has unknown state %q", p.PhoneID, p.State)
		}
		r.bumpPhone(p.PhoneID)
	case *walRegisterRec:
		if p.Model != "" {
			r.identity[p.PhoneID] = p.Model
		}
		r.bumpPhone(p.PhoneID)
	case *walReputationRec:
		r.reputation[p.PhoneID] = p.Score
		if p.Quarantined {
			r.quarantined[p.PhoneID] = true
		}
		r.bumpPhone(p.PhoneID)
	case *walEpochRec:
		if p.Epoch < r.epoch {
			return fmt.Errorf("epoch record regresses %d -> %d", r.epoch, p.Epoch)
		}
		r.epoch = p.Epoch
	default:
		return fmt.Errorf("no fold for a %T", rec)
	}
	return nil
}

// walAppend makes and logs a state change: fold the record, then write
// it. Caller holds m.mu. A failed write is logged, not fatal: the master
// keeps serving, and because later records may refer to what this one
// defined, the log is marked stale — nothing more is written to it until
// live state has been folded into a snapshot (walCompactLocked).
func (m *Master) walAppend(rec walRecord) {
	if err := m.fold(rec); err != nil {
		m.cfg.Logger.With("rec", rec.typ()).Errorf("wal: state refused its own record: %v", err)
		return
	}
	if m.cfg.WAL == nil {
		return
	}
	if m.walStale {
		// The snapshot that brings the log back in step is cut from live
		// state, which already holds this record's change: appending the
		// record behind it would replay the change twice.
		if err := m.walCompactLocked(); err != nil {
			m.cfg.Logger.With("rec", rec.typ()).Errorf("wal: record lost: %v", err)
		}
		return
	}
	if err := m.walWrite(rec); err != nil {
		// Exactly the event an operator tails structured logs for —
		// error level, with the record type as a field.
		m.cfg.Logger.With("rec", rec.typ()).Errorf("wal: record lost: %v", err)
		m.walStale = true
	}
}

// walAppendErr is walAppend for records that gate what follows (Submit
// must not ack, a round must not dispatch, an epoch must not take effect,
// what the log did not take): write the record, then fold it. An error
// means the state is unchanged and the caller backs out.
// Caller holds m.mu.
func (m *Master) walAppendErr(rec walRecord) error {
	if m.cfg.WAL != nil {
		if m.walStale {
			if err := m.walCompactLocked(); err != nil {
				return err
			}
		}
		if err := m.walWrite(rec); err != nil {
			// Nothing diverged (the caller backs out), but the next append
			// folds a snapshot anyway: compaction is also what clears a log
			// wedged by a failed claw-back.
			m.walStale = true
			return err
		}
	}
	if err := m.fold(rec); err != nil {
		// The log now holds a record no replay will take either; the
		// snapshot the next append owes rotates it away.
		m.walStale = true
		return err
	}
	return nil
}

// walWrite encodes one record straight into a pooled WAL frame, appends
// the frame to the attached WAL and hands the same frame to the
// replication sink. Its two callers, walAppend and walAppendErr, hold
// m.mu, so the log, the shipped stream and the fold see one order.
func (m *Master) walWrite(rec walRecord) error {
	f, err := wal.EncodeFrame(rec.typ(), func(buf []byte) ([]byte, error) {
		e := wire.Get()
		defer e.Release()
		return wire.EncodeTo(e, buf, wal.RecordHeader, rec)
	})
	if err != nil {
		return fmt.Errorf("encoding: %w", err)
	}
	defer f.Release()
	if err := m.cfg.WAL.AppendFrame(f.Bytes()); err != nil {
		return err
	}
	// Ship only what the local log took: a standby must never hold a
	// record its primary lost.
	if s := m.cfg.ReplicaSink; s != nil {
		s.Ship(f)
	}
	return nil
}

// walCompactLocked folds live state into a WAL snapshot and rotates the
// log, which brings a stale log back in step: whatever it missed, the
// snapshot holds. Caller holds m.mu, so no append can slip in between
// the cut and the rotation. A stale log's standbys missed what it missed,
// so they are dropped first, to resync from a fresh snapshot cut.
func (m *Master) walCompactLocked() error {
	if s := m.cfg.ReplicaSink; s != nil && m.walStale {
		s.DropAll()
	}
	if err := m.cfg.WAL.Compact(m.walSnapshotLocked); err != nil {
		return fmt.Errorf("folding live state into a WAL snapshot: %w", err)
	}
	m.walStale = false
	return nil
}

// walSnapshotLocked serializes the master's durable state in the
// compaction snapshot format. Caller holds m.mu.
func (m *Master) walSnapshotLocked(w io.Writer) error { return m.snapshot(w) }

// byID lists a fresh or open collection in ascending sequence-number or
// key order.
func byID(items map[int64]*walItemRec) []*walItemRec {
	ids := make([]int64, 0, len(items))
	for id := range items {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*walItemRec, len(ids))
	for i, id := range ids {
		out[i] = items[id]
	}
	return out
}

// CompactWAL folds the master's current durable state into a WAL
// snapshot and rotates the log. Safe to call at any time; a no-op
// without an attached WAL.
func (m *Master) CompactWAL() error {
	wl := m.cfg.WAL
	if wl == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.walCompactLocked()
}

// RecoverWAL replays the attached WAL's snapshot and records into this
// (empty) master: jobs and their partials are restored, queued work is
// re-queued, and byte ranges that were in flight when the old master
// died are re-queued whole (atomic), each with its freshest logged
// checkpoint as resume state. Every fully covered job's result is
// derived from its partials again. The log is then compacted so the
// recovered state becomes the new snapshot.
func (m *Master) RecoverWAL() error {
	wl := m.cfg.WAL
	if wl == nil {
		return nil
	}
	snap, recs := wl.Snapshot(), wl.Recovered()
	if len(snap) == 0 && len(recs) == 0 {
		return nil
	}
	red := newWALReducer()
	if len(snap) > 0 {
		if err := red.loadSnapshot(snap); err != nil {
			return fmt.Errorf("server: wal recovery: %w", err)
		}
	}
	for i, rec := range recs {
		if err := red.apply(rec); err != nil {
			return fmt.Errorf("server: wal recovery: record %d: %w", i, err)
		}
	}
	if err := m.installWALState(red); err != nil {
		return err
	}
	if err := m.CompactWAL(); err != nil {
		return fmt.Errorf("server: wal recovery: compacting recovered state: %w", err)
	}
	return nil
}

// installWALState adopts a folded state as this (empty) master's own,
// as folded, and rebuilds the queue from it: an item per fresh entry,
// then a queued copy per open range — under its old key, though the old
// master's attempts can never reach this one, because the key is what
// the log that continues from here calls the range. A fully covered job
// is finished from its partials, as the round sweep finished it (or
// would have, had the crash come later); nothing is counted or traced,
// because the job is not completing now.
func (m *Master) installWALState(red *walReducer) error {
	for id, js := range red.jobs {
		task, err := tasks.New(js.Task, js.Params)
		if err != nil {
			return fmt.Errorf("server: wal recovery: restoring job %d: %w", id, err)
		}
		js.task = task
		if js.Covered >= js.TotalBytes {
			_ = js.finish() // a terminal aggregation error is kept as Failure
		}
	}
	items := append(byID(red.fresh), byID(red.open)...)
	pending := make([]*workItem, len(items))
	for i, it := range items {
		js, ok := red.jobs[it.JobID]
		if !ok {
			return fmt.Errorf("server: wal recovery: item references unknown job %d", it.JobID)
		}
		it.queued = it.Key != 0
		pending[i] = itemOf(js.task, it)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) != 0 || len(m.pending) != 0 || m.nextPhoneID != 0 {
		return errors.New("server: wal recovery: master already has state")
	}
	m.walReducer, m.pending = red, pending
	// Re-arm the tracer's epoch stamp: master-side events recorded after
	// recovery must carry the recovered fencing regime, not 0.
	m.cfg.Tracer.SetEpoch(m.epoch)
	return nil
}

// ReplicaSnapshot hands a replication shipper an exact cut of the
// master's durable state: activate is called with the serialized
// walState snapshot while the state lock is held, so if the callback
// registers a stream subscriber, every record appended after it returns
// is shipped and nothing already inside the snapshot is shipped again.
func (m *Master) ReplicaSnapshot(activate func(snapshot []byte)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var buf bytes.Buffer
	if err := m.walSnapshotLocked(&buf); err != nil {
		return fmt.Errorf("server: replica snapshot: %w", err)
	}
	activate(buf.Bytes())
	return nil
}

// WALFold incrementally folds WAL records exactly as RecoverWAL replays
// them, for consumers outside this package — a hot standby validating
// its shipped stream, tracking the primary's state live, and
// serializing compaction snapshots for its own log. (At promotion the
// standby still recovers from its persisted log via RecoverWAL; the
// fold never substitutes for the durable path.)
type WALFold struct {
	red     *walReducer
	applied int64
}

// NewWALFold returns an empty fold.
func NewWALFold() *WALFold { return &WALFold{red: newWALReducer()} }

// LoadSnapshot primes the fold from a walState snapshot (a compaction
// snapshot, or the replication stream's opening frame), replacing any
// previous state and resetting the applied count.
func (f *WALFold) LoadSnapshot(b []byte) error {
	red := newWALReducer()
	if err := red.loadSnapshot(b); err != nil {
		return err
	}
	f.red = red
	f.applied = 0
	return nil
}

// Apply folds one record. An undecodable or inconsistent record is the
// caller's cue to drop the stream and resync from a fresh snapshot.
func (f *WALFold) Apply(rec wal.Record) error {
	if err := f.red.apply(rec); err != nil {
		return err
	}
	f.applied++
	return nil
}

// Applied counts records folded since the last snapshot load.
func (f *WALFold) Applied() int64 { return f.applied }

// Epoch returns the folded fencing epoch.
func (f *WALFold) Epoch() int64 { return f.red.epoch }

// Snapshot serializes the folded state in the compaction-snapshot
// format.
func (f *WALFold) Snapshot(w io.Writer) error { return f.red.snapshot(w) }
