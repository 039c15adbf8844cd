package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The compaction snapshot is JSON: it is written once per compaction,
// where a record is written per state change, so its size and decoding
// cost are not on any hot path.

// walState is the compaction snapshot: the reducer's state serialized.
type walState struct {
	NextJobID int   `json:"next_job_id"`
	NextSeq   int64 `json:"next_seq"`
	NextKey   int64 `json:"next_key"`
	// NextPhoneID keeps phone IDs monotone across recovery so a drain
	// ledger entry can never be misapplied to an unrelated phone that
	// happened to be issued a recycled ID.
	NextPhoneID int            `json:"next_phone_id,omitempty"`
	Jobs        []walJobRec    `json:"jobs,omitempty"`
	Fresh       []walItemRec   `json:"fresh,omitempty"`
	Open        []walItemRec   `json:"open,omitempty"`
	DeadLetters []DeadLetter   `json:"dead_letters,omitempty"`
	Drains      map[int]string `json:"drains,omitempty"`
	// Reputation is each phone's result-integrity EWMA score (absent
	// phones are at the initial 1.0); Quarantined lists phones vetoed
	// from placement for integrity failures (sorted, see walRecReputation).
	Reputation  map[int]float64 `json:"reputation,omitempty"`
	Quarantined []int           `json:"quarantined,omitempty"`
	// Identity maps issued phone IDs to self-reported models so rejoins
	// keep their IDs (and reputation) across recovery; see walRegisterRec.
	Identity map[int]string `json:"identity,omitempty"`
	// Epoch is the fencing epoch at the snapshot cut; see walRecEpoch.
	Epoch int64 `json:"epoch,omitempty"`
}

// loadSnapshot primes the reducer from a compaction snapshot.
func (r *walReducer) loadSnapshot(b []byte) error {
	var st walState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	r.nextJobID = max(r.nextJobID, st.NextJobID)
	r.nextSeq, r.nextKey = st.NextSeq, st.NextKey
	for i := range st.Jobs {
		j := st.Jobs[i]
		r.jobs[j.ID] = &j
	}
	for i := range st.Fresh {
		it := st.Fresh[i]
		r.fresh[it.Seq] = &it
		r.nextSeq = max(r.nextSeq, it.Seq)
	}
	for i := range st.Open {
		it := st.Open[i]
		r.open[it.Key] = &it
		r.nextKey = max(r.nextKey, it.Key)
	}
	r.dead = append(r.dead, st.DeadLetters...)
	r.nextPhoneID = max(r.nextPhoneID, st.NextPhoneID)
	for id, s := range st.Drains {
		r.drains[id] = s
		r.bumpPhone(id)
	}
	for id, score := range st.Reputation {
		r.reputation[id] = score
		r.bumpPhone(id)
	}
	for _, id := range st.Quarantined {
		r.quarantined[id] = true
		r.bumpPhone(id)
	}
	for id, model := range st.Identity {
		r.identity[id] = model
		r.bumpPhone(id)
	}
	r.epoch = max(r.epoch, st.Epoch)
	return nil
}

// snapshot serializes the reducer's state in the compaction-snapshot
// format, collections sorted so equivalent states encode identically.
// Speculation keys and item sequence numbers are preserved: the log that
// continues after this snapshot refers to them.
func (r *walReducer) snapshot(w io.Writer) error {
	st := walState{
		NextJobID: r.nextJobID, NextSeq: r.nextSeq, NextKey: r.nextKey,
		NextPhoneID: r.nextPhoneID, Epoch: r.epoch,
		DeadLetters: r.dead, Drains: r.drains,
		Reputation: r.reputation, Identity: r.identity,
	}
	for id := range r.quarantined {
		st.Quarantined = append(st.Quarantined, id)
	}
	sort.Ints(st.Quarantined)
	for _, j := range r.jobs {
		st.Jobs = append(st.Jobs, *j)
	}
	sort.Slice(st.Jobs, func(i, j int) bool { return st.Jobs[i].ID < st.Jobs[j].ID })
	for _, it := range byID(r.fresh) {
		st.Fresh = append(st.Fresh, *it)
	}
	for _, it := range byID(r.open) {
		st.Open = append(st.Open, *it)
	}
	return json.NewEncoder(w).Encode(st)
}
