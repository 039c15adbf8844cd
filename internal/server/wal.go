package server

import (
	"cmp"
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
// job's result is its accumulator, the partials folded as they are
// credited, and is never logged. An input byte is logged once, in its
// job's submit record, coded as the link carries it; every later record
// that concerns a byte range (round, partial, migrate) names it by
// reference — a fresh item's sequence number plus offset and length, or
// an open range's key — and replay resolves the reference against the
// state the earlier records built. Compaction bounds the growth by
// cutting live state into records (walReducer.cut) that replay to it; a
// standby attaches to the same cut.
//
// Durable state is a pure reduction (walReducer) over three collections:
//
//	jobs   — submissions and the accumulator their partials fold into
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
// (walReducer.fold). Decoded, a record's input or result stays as the log
// holds it (wire.Held), coded, checked once at its own record: replay and
// the standby decode it for keeps only where live state needs it raw
// (installWALState, credit, finish), and a cut writes it back out byte
// for byte.
// A snapshot is records too, so recovery and the standby read one format
// through one decoder. Every record changes state, and every one is
// written on the state's owner in the order it is folded.
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
	walRecHead       uint8 = 14 // a cut's counters (compaction snapshot, standby attach)
	walRecJob        uint8 = 15 // a cut's job, its accumulator aside
	walRecItem       uint8 = 16 // a cut's fresh item or open range and its bytes

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
// behind the header. Input and result bytes — a submit's or cut item's
// input, a report's or partial's result — travel Huffman-coded where
// that makes them smaller, with their raw length in the record's last
// tag, as an assign's input and a result do on the link; params and
// checkpoint state ride at their own size. The log's record bound holds
// on raw bytes (walMaxPayload). A payload of an earlier layout is
// refused: a JSON header on its first byte, the all-JSON payload from
// its first four (`{"jo` reads as a header of 2 GB).

// walMaxPayload is the most a record's payload may take decoded, its
// coded section raw: wal.MaxRecordBytes less the type byte. A record is
// refused past it when it is framed and when it is decoded, so no log,
// cut or stream ever holds a record that unpacks to more than the log
// would take raw, and a compressible input cannot make one.
const walMaxPayload = wal.MaxRecordBytes - 1

// walRecord is implemented by every record struct.
type walRecord interface {
	// typ is the record type the struct is logged under. The struct names
	// it itself, once, so no call site can log one type and fold another;
	// walRecords holds the way back.
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
	Input  wire.Held
	Atomic bool
}

func (*walSubmit) typ() uint8 { return walRecSubmit }

func (p *walSubmit) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Seq)
	wire.String(c, 3, &p.Task)
	c.Section(4, &p.Params)
	c.Held(5, &p.Input)
	c.Bool(6, &p.Atomic)
	c.RawLen(7)
}

// walRoundItem opens one keyed byte range. Cut from a fresh item it is
// bytes [Off, Off+Len) of item FromSeq's input; with FromSeq zero it is a
// range that is already open under Key, re-entering a round with its
// bytes and resume state as replay holds them.
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
	Partial wire.Held
}

func (*walReport) typ() uint8 { return walRecReport }

func (p *walReport) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.JobID)
	wire.Int(c, 2, &p.Key)
	wire.Int(c, 3, &p.Bytes)
	c.Held(4, &p.Partial)
	c.RawLen(5)
}

type walPartialRec struct {
	JobID   int
	Key     int64
	Offset  int64
	Partial wire.Held
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
	c.Held(4, &p.Partial)
	wire.Int(c, 5, &p.RemainderSeq)
	wire.Int(c, 6, &p.Retries)
	c.RawLen(7)
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

// walRecords makes the struct each record type decodes into: the read
// side of each struct's typ. An index appears once in an array literal,
// so two types sharing a wire value do not compile.
var walRecords = [walRecEnd]func() walRecord{
	walRecSubmit:     func() walRecord { return new(walSubmit) },
	walRecRound:      func() walRecord { return new(walRound) },
	walRecReport:     func() walRecord { return new(walReport) },
	walRecPartial:    func() walRecord { return new(walPartialRec) },
	walRecMigrate:    func() walRecord { return new(walMigrate) },
	walRecDeadLetter: func() walRecord { return new(walDeadLetterRec) },
	walRecDrain:      func() walRecord { return new(walDrainRec) },
	walRecEpoch:      func() walRecord { return new(walEpochRec) },
	walRecRegister:   func() walRecord { return new(walRegisterRec) },
	walRecReputation: func() walRecord { return new(walReputationRec) },
	walRecHead:       func() walRecord { return new(walCutHead) },
	walRecJob:        func() walRecord { return new(walCutJob) },
	walRecItem:       func() walRecord { return new(walCutItem) },
}

// decodeWAL parses a logged record into its struct. It runs on replay
// and on the standby only: the live master folds the struct it built.
// Every section, a coded one too, is a sub-slice of the payload: a coded
// section is checked here, so a record that does not decode is refused
// at its own record, and held as the log holds it (wire.Held) until live
// state needs it raw. A record that decodes past the log's record bound
// is refused before anything is decoded.
func decodeWAL(rec wal.Record) (walRecord, error) {
	if int(rec.Type) >= len(walRecords) || walRecords[rec.Type] == nil {
		return nil, fmt.Errorf("unknown record type %d", rec.Type)
	}
	v := walRecords[rec.Type]()
	if err := wire.DecodeWithin(rec.Payload, v, walMaxPayload); err != nil {
		return nil, fmt.Errorf("decoding record type %d: %w", rec.Type, err)
	}
	return v, nil
}

// walCutHead, walCutJob and walCutItem are the records a cut adds to the
// log's own (walReducer.cut). A record holds what it logs and nothing
// else, so the reducer's entries, which hold live-only state too, are
// not records themselves. The head holds the counters: the last ID each
// collection issued, whose job, item, range or phone may be gone.
type walCutHead struct {
	NextJobID   int
	NextSeq     int64
	NextKey     int64
	NextPhoneID int
}

func (*walCutHead) typ() uint8 { return walRecHead }

func (p *walCutHead) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.NextJobID)
	wire.Int(c, 2, &p.NextSeq)
	wire.Int(c, 3, &p.NextKey)
	wire.Int(c, 4, &p.NextPhoneID)
}

// walCutJob is a walJobRec but for its accumulator: the cut carries that
// in a keyless report behind it.
type walCutJob struct {
	ID         int
	Task       string
	Params     []byte
	TotalBytes int64
	Covered    int64
	Failure    string
}

func (*walCutJob) typ() uint8 { return walRecJob }

func (p *walCutJob) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.ID)
	wire.String(c, 2, &p.Task)
	c.Section(3, &p.Params)
	wire.Int(c, 4, &p.TotalBytes)
	wire.Int(c, 5, &p.Covered)
	wire.String(c, 6, &p.Failure)
}

// walCutItem is a fresh item's or an open range's walItemRec but for its
// resume state: the cut carries that in a migrate record behind it, so
// the item is no larger than the submit its bytes came from.
type walCutItem struct {
	Seq       int64
	Key       int64
	JobID     int
	Input     wire.Held
	Atomic    bool
	Retries   int
	Partition int
}

func (*walCutItem) typ() uint8 { return walRecItem }

func (p *walCutItem) Wire(c *wire.Codec) {
	wire.Int(c, 1, &p.Seq)
	wire.Int(c, 2, &p.Key)
	wire.Int(c, 3, &p.JobID)
	c.Held(4, &p.Input)
	c.Bool(5, &p.Atomic)
	wire.Int(c, 6, &p.Retries)
	wire.Int(c, 7, &p.Partition)
	c.RawLen(8)
}

// walJobRec is a job's durable state: the reducer's entry and the live
// master's are this one struct, and a cut logs it as a walCutJob.
type walJobRec struct {
	ID         int
	Task       string
	Params     []byte
	TotalBytes int64
	Covered    int64
	// Result is the accumulator every partial folds into (credit), nil
	// until the first; a terminal aggregation error is Failure instead.
	Result  wire.Held
	Failure string

	// Live only, never logged: task is Task and Params instantiated; Done
	// is set once the job is covered (finish), and JobFailure waits for it.
	task tasks.Task
	Done bool
}

// credit folds a partial into the job's accumulator: the first as it is
// held (coded, on replay and the standby), each later one aggregated with
// it. An aggregation error refuses no record: it is the job's Failure,
// which drops the accumulator and every later partial.
func (js *walJobRec) credit(p wire.Held) {
	var err error
	switch {
	case js.Failure != "":
		return
	case js.Result.Bytes == nil:
		js.Result = p
	default:
		js.Result, err = js.aggregate(p)
	}
	if err != nil {
		js.Result, js.Failure = wire.Held{}, fmt.Sprintf("server: job %d: %v", js.ID, err)
	} else if js.Result.Bytes == nil {
		js.Result.Bytes = []byte{} // an empty result is still a result
	}
}

// aggregate merges the accumulator and p, raw, instantiating the task on
// replay and the standby.
func (js *walJobRec) aggregate(p wire.Held) (acc wire.Held, err error) {
	if js.task == nil {
		if js.task, err = tasks.New(js.Task, js.Params); err != nil {
			return acc, err
		}
	}
	b, ok := js.task.(tasks.Breakable)
	if !ok {
		return acc, errors.New("more than one partial, but the task is not breakable")
	}
	first, err := js.Result.Raw()
	if err != nil {
		return acc, err
	}
	raw, err := p.Raw()
	if err != nil {
		return acc, err
	}
	acc.Bytes, err = b.Aggregate([][]byte{first, raw})
	return acc, err
}

// finish marks a covered job done. Nothing logs it, and nothing decodes
// it: the accumulator is a deterministic function of the partials in log
// order, so a recovered master holds the same result, or the same terminal
// error, again, coded as its record held it (and checked there), and a
// cut writes it through.
func (js *walJobRec) finish() error {
	js.Done = true
	if js.Failure == "" && js.Result.Bytes == nil {
		js.Failure = fmt.Sprintf("server: job %d complete with no partials", js.ID)
	}
	if js.Failure != "" {
		return errors.New(js.Failure)
	}
	return nil
}

// walItemRec is a byte range's durable state, in one of two lives. A
// fresh item (Seq set) is queued work no round has cut yet. An open range
// (Key set) is one issued, unsettled speculation key: a round record
// opens it; a folded result, the partial-result shortcut or a dead letter
// closes it. Attempts, queued copies and vote groups point at the open
// entry; one that still holds the pointer after the entry left the table
// reads it as settled (settledLocked), so per-key memory is bounded by
// the work in flight. A cut logs it as a walCutItem.
type walItemRec struct {
	Seq   int64
	Key   int64
	JobID int
	// The range is bytes [Off, Off+Len) of src, the input section of the
	// submit or cut item it was cut from, shared by every range cut from
	// it and held as its record held it: raw on the live master, coded on
	// replay and the standby until installWALState decodes it (input).
	src      *wire.Held
	Off, Len int64
	// Resume is the furthest resume state an open range holds: shipped
	// with it, reported by a failure, or streamed mid-execution. Any
	// re-dispatch resumes from here. A fresh item has none.
	Resume  *tasks.Checkpoint
	Atomic  bool
	Retries int
	// Partition preserves the range's timeline row across recovery; see
	// walRoundItem.Partition.
	Partition int

	// Live only, written outside fold, never logged — replay needs
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

// bumpPhone keeps phone IDs monotone: no ID any record mentions is ever
// issued again.
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
		n := int64(p.Input.Len())
		r.jobs[p.JobID] = &walJobRec{
			ID: p.JobID, Task: p.Task, Params: p.Params, TotalBytes: n,
		}
		r.fresh[p.Seq] = &walItemRec{Seq: p.Seq, JobID: p.JobID, src: &p.Input, Len: n, Atomic: p.Atomic}
		r.nextJobID = max(r.nextJobID, p.JobID+1)
		r.nextSeq = max(r.nextSeq, p.Seq)
	case *walRound:
		// Resolve every reference before anything the record consumes is
		// deleted; the opened ranges share their item's source, never
		// copy it.
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
			n := src.Len
			if it.Off < 0 || it.Len <= 0 || it.Off > n || it.Len > n-it.Off {
				return fmt.Errorf("round: key %d names bytes [%d,+%d) of the %d-byte fresh item %d",
					it.Key, it.Off, it.Len, n, it.FromSeq)
			}
			opened = append(opened, &walItemRec{
				Key: it.Key, JobID: src.JobID, src: src.src, Off: src.Off + it.Off, Len: it.Len,
				Atomic: true, Retries: it.Retries, Partition: it.Partition,
			})
			cut[it.FromSeq] += it.Len
		}
		for seq, n := range cut {
			if total := r.fresh[seq].Len; n != total {
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
		js.credit(p.Partial)
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
			if p.Offset < 0 || p.Offset >= src.Len {
				return fmt.Errorf("partial: remainder of key %d from offset %d of %d bytes", p.Key, p.Offset, src.Len)
			}
			r.fresh[p.RemainderSeq] = &walItemRec{
				Seq: p.RemainderSeq, JobID: p.JobID, src: src.src, Off: src.Off + p.Offset, Len: src.Len - p.Offset,
				Retries: p.Retries,
			}
			r.nextSeq = max(r.nextSeq, p.RemainderSeq)
		}
		delete(r.open, p.Key)
		js.Covered += p.Offset
		js.credit(p.Partial)
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
	case *walCutHead:
		r.nextJobID = max(r.nextJobID, p.NextJobID)
		r.nextSeq = max(r.nextSeq, p.NextSeq)
		r.nextKey = max(r.nextKey, p.NextKey)
		r.nextPhoneID = max(r.nextPhoneID, p.NextPhoneID)
	case *walCutJob:
		if _, dup := r.jobs[p.ID]; dup {
			return fmt.Errorf("duplicate job record for job %d", p.ID)
		}
		r.jobs[p.ID] = &walJobRec{
			ID: p.ID, Task: p.Task, Params: p.Params, TotalBytes: p.TotalBytes, Covered: p.Covered,
			Failure: p.Failure,
		}
		r.nextJobID = max(r.nextJobID, p.ID+1)
	case *walCutItem:
		// Sequence number or key: a fresh item or an open range, never both.
		tab, id := r.fresh, p.Seq
		if p.Key != 0 {
			tab, id = r.open, p.Key
		}
		switch _, err := r.job(p.JobID); {
		case err != nil:
			return fmt.Errorf("item: %w", err)
		case (p.Seq == 0) == (p.Key == 0):
			return fmt.Errorf("item record names sequence number %d and key %d; want exactly one", p.Seq, p.Key)
		case tab[id] != nil:
			return fmt.Errorf("item record for sequence number %d, key %d, which is already held", p.Seq, p.Key)
		}
		tab[id] = &walItemRec{Seq: p.Seq, Key: p.Key, JobID: p.JobID, src: &p.Input, Len: int64(p.Input.Len()),
			Atomic: p.Atomic, Retries: p.Retries, Partition: p.Partition}
		r.nextSeq, r.nextKey = max(r.nextSeq, p.Seq), max(r.nextKey, p.Key)
	default:
		return fmt.Errorf("no fold for a %T", rec)
	}
	return nil
}

// walAppend makes and logs a state change: fold the record, then write
// it. A failed write is logged, not fatal: the master
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

// walFrame encodes one record straight into a pooled WAL frame. A record
// whose payload takes more than walMaxPayload raw is refused, coded or
// not.
func walFrame(rec walRecord) (*wal.Frame, error) {
	f, err := wal.EncodeFrame(rec.typ(), func(buf []byte) ([]byte, error) {
		e := wire.Get()
		defer e.Release()
		b, err := wire.EncodeTo(e, buf, wal.RecordHeader, rec)
		if raw := len(b) - wal.RecordHeader + e.Expansion(); err == nil && raw > walMaxPayload {
			err = fmt.Errorf("%w: a payload of %d bytes raw", wal.ErrTooLarge, raw)
		}
		return b, err
	})
	if err != nil {
		return nil, fmt.Errorf("encoding record type %d: %w", rec.typ(), err)
	}
	return f, nil
}

// walWrite encodes one record, appends the frame to the attached WAL and
// hands the same frame to the replication sink. Its two callers,
// walAppend and walAppendErr, run on the state's owner, so the log, the
// shipped stream and the fold see one order.
func (m *Master) walWrite(rec walRecord) error {
	f, err := walFrame(rec)
	if err != nil {
		return err
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

// walCompactLocked cuts live state into a WAL snapshot and rotates the
// log, which brings a stale log back in step: whatever it missed, the
// snapshot holds. It runs in one step, so no append can slip in between
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

// walSnapshotLocked writes the master's cut.
func (m *Master) walSnapshotLocked(w io.Writer) error { return m.snapshot(w) }

// cut lists the records whose fold, from an empty reducer, is r's state:
// the compaction snapshot and a standby's attach cut. Collections go in
// ascending ID order, so equal states cut to equal records, and keys and
// sequence numbers are kept: the log that continues refers to them. No
// record is larger than the logged one whose state it carries, so a cut
// of any size frames like the log it replaces. Held bytes go out as they
// are held; a range of a source held only coded is decoded to be coded
// again, which, the coder being deterministic, writes what the primary's
// cut of the same state writes.
func (r *walReducer) cut() ([]walRecord, error) {
	recs := []walRecord{&walCutHead{NextJobID: r.nextJobID, NextSeq: r.nextSeq,
		NextKey: r.nextKey, NextPhoneID: r.nextPhoneID}}
	if r.epoch != 0 {
		recs = append(recs, &walEpochRec{Epoch: r.epoch})
	}
	for _, id := range sortedKeys(r.identity) {
		recs = append(recs, &walRegisterRec{PhoneID: id, Model: r.identity[id]})
	}
	for _, id := range sortedKeys(r.drains) {
		recs = append(recs, &walDrainRec{PhoneID: id, State: r.drains[id]})
	}
	for _, id := range sortedKeys(r.reputation) {
		recs = append(recs, &walReputationRec{PhoneID: id, Score: r.reputation[id], Quarantined: r.quarantined[id]})
	}
	for _, id := range sortedKeys(r.jobs) {
		js := r.jobs[id]
		recs = append(recs, &walCutJob{ID: id, Task: js.Task, Params: js.Params,
			TotalBytes: js.TotalBytes, Covered: js.Covered, Failure: js.Failure})
		if js.Result.Bytes != nil {
			recs = append(recs, &walReport{JobID: id, Partial: js.Result})
		}
	}
	raws := map[*wire.Held][]byte{} // sources decoded for this cut
	for _, it := range append(byID(r.fresh), byID(r.open)...) {
		input, err := it.section(raws)
		if err != nil {
			return nil, fmt.Errorf("cutting item %d, key %d: %w", it.Seq, it.Key, err)
		}
		recs = append(recs, &walCutItem{Seq: it.Seq, Key: it.Key, JobID: it.JobID, Input: input,
			Atomic: it.Atomic, Retries: it.Retries, Partition: it.Partition})
		if it.Resume != nil {
			recs = append(recs, &walMigrate{JobID: it.JobID, Key: it.Key, Resume: it.Resume,
				Retries: it.Retries, Partition: it.Partition})
		}
	}
	for _, d := range r.dead {
		recs = append(recs, &walDeadLetterRec{JobID: d.JobID, Task: d.Task, Bytes: d.Bytes,
			Retries: d.Retries, Reason: d.Reason})
	}
	return recs, nil
}

// input is the range's bytes raw, or nil while its source is held coded.
func (e *walItemRec) input() []byte {
	if e.src.N != 0 {
		return nil
	}
	end := e.Off + e.Len
	return e.src.Bytes[e.Off:end:end]
}

// section is the range's bytes as a cut logs them: the source as it is
// held when the range is all of it, else the range raw, from the source
// decoded once a cut (raws) when it is held only coded.
func (e *walItemRec) section(raws map[*wire.Held][]byte) (wire.Held, error) {
	if e.Off == 0 && e.Len == int64(e.src.Len()) {
		return *e.src, nil
	}
	if b := e.input(); b != nil {
		return wire.Held{Bytes: b}, nil
	}
	raw, ok := raws[e.src]
	if !ok {
		var err error
		if raw, err = e.src.Raw(); err != nil {
			return wire.Held{}, err
		}
		raws[e.src] = raw
	}
	end := e.Off + e.Len
	return wire.Held{Bytes: raw[e.Off:end:end]}, nil
}

// snapshot writes r's cut as framed records.
func (r *walReducer) snapshot(w io.Writer) error {
	recs, err := r.cut()
	if err != nil {
		return err
	}
	_, err = (&Cut{recs: recs}).WriteTo(w)
	return err
}

// A Cut is the master's durable state as the records whose fold rebuilds
// it (walReducer.cut), taken in one step of the master's loop. Its
// records share the state's bytes, which nothing rewrites once logged, so
// a Cut is framed and written off the loop: its size costs the loop
// nothing, and no buffer holds it whole. err is why the cut could not be
// taken; WriteTo returns it.
type Cut struct {
	recs []walRecord
	err  error
}

// Len is the number of records in the cut.
func (c *Cut) Len() int { return len(c.recs) }

// WriteTo frames the cut's records, in order, and writes each to w as
// one Write.
func (c *Cut) WriteTo(w io.Writer) (int64, error) {
	if c.err != nil {
		return 0, c.err
	}
	var n int64
	for _, rec := range c.recs {
		f, err := walFrame(rec)
		if err != nil {
			return n, err
		}
		k, err := w.Write(f.Bytes())
		f.Release()
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// byID lists a fresh or open collection in ascending sequence-number or
// key order.
func byID(items map[int64]*walItemRec) []*walItemRec {
	out := make([]*walItemRec, 0, len(items))
	for _, id := range sortedKeys(items) {
		out = append(out, items[id])
	}
	return out
}

// sortedKeys lists m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// CompactWAL cuts the master's current durable state into a WAL
// snapshot and rotates the log. Safe to call at any time; a no-op
// without an attached WAL.
func (m *Master) CompactWAL() error {
	wl := m.cfg.WAL
	if wl == nil {
		return nil
	}
	var err error
	m.do(func() { err = m.walCompactLocked() })
	return err
}

// RecoverWAL replays the attached WAL's records — its snapshot's, then
// its segments' — into this (empty) master: jobs and their accumulated
// results are restored, queued work is re-queued, and byte ranges that
// were in flight when the old master died are re-queued whole (atomic),
// each with its freshest logged checkpoint as resume state. Every fully
// covered job is finished again. The log is then compacted so the
// recovered state becomes the new snapshot.
func (m *Master) RecoverWAL() error {
	wl := m.cfg.WAL
	if wl == nil || len(wl.Recovered()) == 0 {
		return nil
	}
	red := newWALReducer()
	for i, rec := range wl.Recovered() {
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
// the log that continues from here calls the range. Each queued range's
// source is decoded here, once for every range cut from it; a consumed
// input is never decoded. A fully covered job is finished, as the round
// sweep finished it (or would have, had the crash come later); nothing is
// counted or traced, because the job is not completing now.
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
		if it.src.N != 0 {
			raw, err := it.src.Raw()
			if err != nil {
				return fmt.Errorf("server: wal recovery: decoding job %d's input: %w", it.JobID, err)
			}
			*it.src = wire.Held{Bytes: raw}
		}
		it.queued = it.Key != 0
		pending[i] = itemOf(js, it)
	}

	var err error
	m.do(func() {
		if len(m.jobs) != 0 || len(m.pending) != 0 || m.nextPhoneID != 0 {
			err = errors.New("server: wal recovery: master already has state")
			return
		}
		m.walReducer, m.pending = red, pending
		// Re-arm the tracer's epoch stamp: master-side events recorded after
		// recovery must carry the recovered fencing regime, not 0.
		m.cfg.Tracer.SetEpoch(m.epoch)
	})
	return err
}

// ReplicaSnapshot hands a replication shipper an exact cut of the
// master's durable state: activate is called with the cut in one step
// on the master's loop, so if the callback registers a stream subscriber,
// every record appended after it returns is shipped and nothing already
// inside the cut is shipped again. activate must never call a Master
// method.
func (m *Master) ReplicaSnapshot(activate func(cut *Cut)) {
	m.do(func() {
		recs, err := m.cut()
		activate(&Cut{recs: recs, err: err})
	})
}

// WALFold incrementally folds WAL records exactly as RecoverWAL replays
// them, for consumers outside this package — a hot standby folding its
// attach cut and then its shipped stream, tracking the primary's state
// live, and cutting compaction snapshots for its own log. (At promotion
// the standby still recovers from its persisted log via RecoverWAL; the
// fold never substitutes for the durable path.)
type WALFold struct {
	red     *walReducer
	applied int64
}

// NewWALFold returns an empty fold.
func NewWALFold() *WALFold { return &WALFold{red: newWALReducer()} }

// Reset empties the fold and its applied count, for a standby about to
// fold a fresh cut.
func (f *WALFold) Reset() { f.red, f.applied = newWALReducer(), 0 }

// Apply folds one record. An undecodable or inconsistent record is the
// caller's cue to drop the stream and resync from a fresh cut. The fold
// keeps what it holds of rec's payload where it lies, a coded section as
// it came, so rec is the fold's: the caller must not reuse its bytes.
func (f *WALFold) Apply(rec wal.Record) error {
	if err := f.red.apply(rec); err != nil {
		return err
	}
	f.applied++
	return nil
}

// Applied counts records folded since the fold was made or Reset.
func (f *WALFold) Applied() int64 { return f.applied }

// Epoch returns the folded fencing epoch.
func (f *WALFold) Epoch() int64 { return f.red.epoch }

// Snapshot writes the folded state's cut as framed records, for a
// standby's own compaction.
func (f *WALFold) Snapshot(w io.Writer) error { return f.red.snapshot(w) }
