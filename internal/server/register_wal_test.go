package server

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"cwc/internal/protocol"
	"cwc/internal/wal"
)

// TestWALRegisterRecordKeepsPhoneIDsMonotone is the failover-discovered
// regression: phones that register but never receive work used to leave
// no trace in the WAL, so a recovered master (or a promoted standby)
// restarted IDs from zero and reissued an ID a phone from the previous
// regime still held — after which the two phones steal the registration
// from each other through endless rejoin takeovers. The register record
// (type 12) must keep issued IDs monotone across recovery on its own,
// with no dispatch or drain record to lean on.
func TestWALRegisterRecordKeepsPhoneIDsMonotone(t *testing.T) {
	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	a := startMaster(t, Config{WAL: wl})
	dialFake(t, a, "HTC G2", 806)
	dialFake(t, a, "Nexus S", 1000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.WaitForPhones(ctx, 2); err != nil {
		t.Fatal(err)
	}
	a.Close()
	wl.Close()

	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	b := startMaster(t, Config{WAL: wl2})
	if err := b.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	dialFake(t, b, "Galaxy Nexus", 1200)
	if err := b.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if id := b.Phones()[0].ID; id < 2 {
		t.Errorf("recovered master reissued phone ID %d; IDs 0 and 1 are still held by the previous regime", id)
	}
}

// TestRejoinRefusesModelMismatch: a rejoin hello may only take over an
// existing registration when the model matches — otherwise a different
// phone that legitimately believes it holds the same ID (granted by a
// previous master regime) would hijack the current holder's connection.
func TestRejoinRefusesModelMismatch(t *testing.T) {
	m := startMaster(t, Config{})
	holder := dialFake(t, m, "HTC G2", 806)
	_ = holder
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.WaitForPhones(ctx, 1); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := protocol.NewConn(raw)
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeHello, Model: "Nexus S", CPUMHz: 1000, RAMMB: 512,
		Rejoin: true, PhoneID: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	w, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if w.Type != protocol.TypeWelcome {
		t.Fatalf("expected welcome, got %s", w.Type)
	}
	if w.PhoneID == 0 {
		t.Error("model-mismatched rejoin took over phone 0 instead of registering fresh")
	}
	// The original holder must still be alive under its ID.
	found := false
	for _, p := range m.Phones() {
		if p.ID == 0 && p.Model == "HTC G2" && p.Alive {
			found = true
		}
	}
	if !found {
		t.Error("original phone 0 registration was disturbed by the mismatched rejoin")
	}
}

// TestWALFoldSnapshotKeepsIdentity: a standby compacts its own log with
// WALFold.Snapshot, which used to drop the issued-ID → model map the
// master's own snapshot writes. After one standby compaction and a
// promotion, a rejoining phone's (id, model) no longer matched anything,
// it was reissued a fresh ID, and its reputation and quarantine detached
// from it. Both snapshots now come from one serializer; this folds a
// register and a quarantining reputation record, compacts a log with
// the fold's snapshot, and recovers a master from it.
func TestWALFoldSnapshotKeepsIdentity(t *testing.T) {
	fold := NewWALFold()
	for _, rec := range []wal.Record{
		{Type: walRecRegister, Payload: encodeWAL(t, &walRegisterRec{PhoneID: 4, Model: "Nexus S"})},
		{Type: walRecReputation, Payload: encodeWAL(t, &walReputationRec{PhoneID: 4, Score: 0.2, Quarantined: true})},
	} {
		if err := fold.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := fold.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	foldCut(t, NewWALFold(), snap.Bytes())

	dir := t.TempDir()
	wl := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	if err := wl.Compact(fold.Snapshot); err != nil {
		t.Fatal(err)
	}
	wl.Close()
	wl2 := openWAL(t, dir, wal.Options{Sync: wal.SyncAlways})
	m := startMaster(t, Config{WAL: wl2})
	if err := m.RecoverWAL(); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := protocol.NewConn(raw)
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeHello, Model: "Nexus S", CPUMHz: 1000, RAMMB: 512,
		Rejoin: true, PhoneID: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	w, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if w.Type != protocol.TypeWelcome || w.PhoneID != 4 {
		t.Fatalf("rejoin welcomed as %s phone %d, want its old ID 4", w.Type, w.PhoneID)
	}
	if !m.Quarantined(4) || m.Reputation(4) != 0.2 {
		t.Errorf("phone 4: quarantined %v, reputation %v; want its quarantine and 0.2 back", m.Quarantined(4), m.Reputation(4))
	}
}
