package tasks

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestDigestDeterministicAndDistinct(t *testing.T) {
	a := Digest([]byte("hello"))
	if a != Digest([]byte("hello")) {
		t.Fatal("Digest not deterministic")
	}
	if a == Digest([]byte("hellp")) {
		t.Fatal("distinct payloads collided")
	}
	want := sha256.Sum256([]byte("hello"))
	if a != want || a.String() != hex.EncodeToString(want[:]) {
		t.Fatalf("Digest = %s, want plain SHA-256", a)
	}
}

func TestDigestEmptyAndNilAgree(t *testing.T) {
	if Digest(nil) != Digest([]byte{}) {
		t.Fatal("nil and empty payloads must share a digest")
	}
	if Digest(nil) == (Sum{}) {
		t.Fatal("empty payload must still digest")
	}
}

func TestCheckpointDigestBindsOffsetWidth(t *testing.T) {
	// Without the fixed-width offset prefix these two would collide.
	a := (&Checkpoint{Offset: 1, State: []byte("2")}).Digest()
	b := (&Checkpoint{Offset: 12, State: nil}).Digest()
	if a == b {
		t.Fatal("offset/state boundary ambiguity: digests collided")
	}
	c := &Checkpoint{Offset: 7, State: []byte("acc")}
	if c.Digest() != c.Clone().Digest() {
		t.Fatal("clone digest differs")
	}
}
