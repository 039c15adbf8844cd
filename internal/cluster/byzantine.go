package cluster

import (
	"context"
	"math/rand"
	"net"

	"cwc/internal/faults"
	"cwc/internal/protocol"
	"cwc/internal/tasks"
	"cwc/internal/wire"
)

// byzantineDial makes the phone behind dial misbehave as spec says: every
// connection it returns rewrites the result frames the phone writes on it
// and passes every other frame through untouched. The workers stay
// honest; the misbehaviour is the harness's. The draws come from one
// source seeded with spec.Seed that outlives the phone's reconnections,
// so a fleet misbehaves reproducibly.
func byzantineDial(spec faults.ByzantineSpec, dial faults.DialFunc) faults.DialFunc {
	b := &byzantine{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
	return func(ctx context.Context) (net.Conn, error) {
		c, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return &byzantineConn{Conn: c, b: b, out: protocol.NewConn(c)}, nil
	}
}

// byzantine is one phone's misbehaviour, shared by its connections. A
// worker serves one connection at a time, so the draws never overlap.
type byzantine struct {
	spec faults.ByzantineSpec
	rng  *rand.Rand
}

// byzantineConn is one connection of a byzantine phone.
type byzantineConn struct {
	net.Conn
	b   *byzantine
	out *protocol.Conn // writes the rewritten frames on Conn
}

// Write rewrites a result frame and sends it in its place. A frame is one
// Write: protocol.Conn.Send writes the length prefix and the unit at once.
func (c *byzantineConn) Write(frame []byte) (int, error) {
	var m protocol.Message
	if len(frame) < 4 || wire.Decode(frame[4:], &m) != nil || m.Type != protocol.TypeResult {
		return c.Conn.Write(frame)
	}
	c.b.mutate(&m)
	if err := c.out.Send(&m); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// mutate applies the spec's draws to a result. A lazy phone reports "0"
// computed in no time. A lie is applied before the digest is taken, so
// the frame stays consistent and only a vote or an audit can catch it.
// Corruption flips one byte after, so the claimed digest no longer
// matches the payload and the master catches it from the frame alone.
func (b *byzantine) mutate(m *protocol.Message) {
	s, rng := b.spec, b.rng
	result := m.Result
	if s.LazyProb > 0 && rng.Float64() < s.LazyProb {
		result, m.ExecMs = []byte("0"), 0
	}
	if s.LiarProb > 0 && rng.Float64() < s.LiarProb {
		// The offset is drawn per result so two liars given the same
		// partition (dis)agree like independent adversaries: a fixed lie
		// would let them collude and outvote the honest replica.
		result = lie(result, byte(1+rng.Intn(9)))
	}
	m.Digest = tasks.Digest(result)
	if s.CorruptProb > 0 && len(result) > 0 && rng.Float64() < s.CorruptProb {
		result = append([]byte(nil), result...)
		result[rng.Intn(len(result))] ^= 0xff
	}
	m.Result = result
}

// lie produces a wrong-but-well-formed variant of a result: every
// ASCII digit is shifted by off (1..9) mod 10, so a counting task's
// decimal result stays parseable but wrong. A result with no digits
// gets a byte appended instead, so the lie is never a no-op.
func lie(result []byte, off byte) []byte {
	out := append([]byte(nil), result...)
	changed := false
	for i, c := range out {
		if c >= '0' && c <= '9' {
			out[i] = '0' + (c-'0'+off)%10
			changed = true
		}
	}
	if !changed {
		out = append(out, '!'+off)
	}
	return out
}
