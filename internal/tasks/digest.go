// Canonical-bytes digest rule for result integrity. A digest pins the
// exact payload bytes a frame claims to carry, so the master can verify
// frames from phones it does not control: a transport-corrupted result
// fails the digest check outright, and two replicas of the same
// partition can be compared (and voted over) by digest alone without
// shipping both payloads to the comparison site.
//
// The rule is deliberately trivial: a result's canonical bytes ARE its
// payload bytes (tasks already emit deterministic output for identical
// input — that determinism is what makes replicated voting sound), and
// a checkpoint's canonical bytes are its offset in fixed-width
// big-endian followed by the state bytes. No JSON, no maps, no
// re-serialization ambiguity.
package tasks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Sum is a SHA-256 digest: a value, compared with ==, that the wire
// carries as its 32 raw bytes. The zero Sum is no digest (no payload
// hashes to it).
type Sum [sha256.Size]byte

// String is the digest in lowercase hex, for logs.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// Digest returns the canonical digest of a result payload: SHA-256 over
// the exact payload bytes, with no allocation. Digest(nil) is the digest
// of the empty payload, so a task legitimately returning zero bytes still
// yields a comparable, stable digest.
func Digest(payload []byte) Sum {
	return sha256.Sum256(payload)
}

// Digest returns the canonical digest of the checkpoint: SHA-256 over
// the 8-byte big-endian offset followed by the state bytes. The
// fixed-width offset prefix keeps (offset=1, state="2") and
// (offset=12, state="") from colliding.
func (c *Checkpoint) Digest() Sum {
	h := sha256.New()
	var off [8]byte
	binary.BigEndian.PutUint64(off[:], uint64(c.Offset))
	h.Write(off[:])
	h.Write(c.State)
	var s Sum
	h.Sum(s[:0])
	return s
}
