package faults

import (
	"math"
	"math/rand"
	"sort"
)

// ByzDirective scripts one flavour of compute-layer misbehaviour over a
// fraction of the fleet: Frac of the phones (seeded selection, like
// waves) misbehave, each with per-result probability Prob. Unlike the
// link-level Profile faults, these are semantic faults — the transport
// delivers the bytes perfectly, but the bytes are wrong.
type ByzDirective struct {
	Frac float64 // fraction of the fleet in (0,1]
	Prob float64 // per-result probability in (0,1]; parser defaults to 1
}

// ByzantineSpec is one phone's compute-layer misbehaviour. The package
// only carries it: a harness applies it above the framing, to the result
// frames the phone writes. The zero value is an honest phone.
type ByzantineSpec struct {
	// LiarProb is the per-result probability of returning a plausible
	// but wrong result with a matching (honestly computed) digest —
	// the adversary replicated voting exists to catch.
	LiarProb float64
	// LazyProb is the per-result probability of reporting "0" computed
	// in no time: the freeloader that banks reputation doing no work.
	LazyProb float64
	// CorruptProb is the per-result probability of flipping one byte of
	// the result after digesting it, so the claimed digest no longer
	// matches the payload (in-transit damage, caught without voting).
	CorruptProb float64
	// Seed drives the phone's misbehaviour decisions deterministically.
	Seed int64
}

// ByzantineFor expands the plan's byzantine directives over a fleet of
// n phones into per-phone specs. Phone selection is drawn from
// Plan.Seed (one stream per directive, like Schedule), so the same seed
// and fleet size replay the identical cast of liars. A directive with
// Frac > 0 always afflicts at least one phone. Phones absent from the
// map are honest.
func (pl *Plan) ByzantineFor(n int) map[int]ByzantineSpec {
	out := map[int]ByzantineSpec{}
	expand := func(d ByzDirective, salt int64, set func(*ByzantineSpec, float64)) {
		if d.Frac <= 0 || n <= 0 {
			return
		}
		k := int(math.Round(d.Frac * float64(n)))
		if k > n {
			k = n
		}
		if k < 1 {
			k = 1
		}
		rng := rand.New(rand.NewSource(pl.Seed ^ salt))
		for _, phone := range rng.Perm(n)[:k] {
			s := out[phone]
			set(&s, d.Prob)
			out[phone] = s
		}
	}
	expand(pl.Liar, 0x11a5, func(s *ByzantineSpec, p float64) { s.LiarProb = p })
	expand(pl.LazyResult, 0x1a2e, func(s *ByzantineSpec, p float64) { s.LazyProb = p })
	expand(pl.CorruptResult, 0xc055, func(s *ByzantineSpec, p float64) { s.CorruptProb = p })
	for phone, s := range out {
		s.Seed = pl.Seed ^ (int64(phone)+1)*0x9e3779b9
		out[phone] = s
	}
	return out
}

// ByzantinePhones returns the sorted phone indices ByzantineFor(n)
// would afflict — the expected cast for a test to assert against.
func (pl *Plan) ByzantinePhones(n int) []int {
	specs := pl.ByzantineFor(n)
	out := make([]int, 0, len(specs))
	for phone := range specs {
		out = append(out, phone)
	}
	sort.Ints(out)
	return out
}
