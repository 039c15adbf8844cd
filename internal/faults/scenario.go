package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseScenario builds a Plan from a compact fault-scenario DSL. One
// clause per line (or semicolon-separated), each targeting one phone,
// every phone, the plan seed, or a coordinated unplug wave:
//
//	# phone 3 drops every 2nd assignment mid-transfer, at most 4 times
//	phone 3: cut-every=2 max-cuts=4
//	# every link: 5 ms +/- 2 ms latency, 256 KB/s, 5% corrupted frames
//	phone *: latency=5ms jitter=2ms bw=256 corrupt=0.05
//	phone 1: refuse=0.3 refuse-every=2 seed=42
//	# the morning storm: 60% of the fleet unplugs between t=2s and t=3s,
//	# each phone flapping back onto the charger 1500ms later
//	seed: 7
//	wave: frac=0.6 start=2s spread=1s replug-after=1500ms
//	# failover drill: murder the primary at t=1s, resurrect it 2s later,
//	# and sever replication for a second starting at t=4s
//	kill-primary: at=1s resurrect=2s
//	partition: start=4s duration=1s target=replica
//	# byzantine fleet: 20% of the phones lie about every result
//	liar: frac=0.2
//
// Phone keys: latency, jitter (durations), bw (KB/s), partial, corrupt,
// cut, refuse (probabilities in [0,1]), cut-every, max-cuts,
// refuse-every (counts), seed (int64). Repeated clauses for the same
// phone merge key-wise; `phone *` sets the default profile used by
// phones without a specific entry.
//
// Wave keys: frac (required, fraction of the fleet in (0,1]), start
// (band start), spread (band width; unplug instants are uniform within
// it), replug-after (how long each phone stays unplugged; omit for
// phones that vanish for good). `seed:` sets Plan.Seed, which drives the
// wave's deterministic phone selection and timing (see Plan.Schedule).
//
// kill-primary keys: at (required, when the primary dies), resurrect
// (delay from the kill to restarting the old primary; omit to leave it
// dead). partition keys: start (required), duration (zero/omitted means
// until scenario end), target (required: "replica" or "workers"). Both
// are carried on the Plan for a failover harness to interpret.
//
// liar, lazy-result and corrupt-result keys: frac (required, fraction
// of the fleet in (0,1] that misbehaves; seeded selection via
// Plan.Seed, see ByzantineFor) and prob (per-result misbehaviour
// probability in (0,1], default 1). These are compute-layer faults —
// wrong bytes over a perfect link — carried for the harness to apply
// to the afflicted phones' result frames.
//
// Errors name the offending line and token.
func ParseScenario(src string) (*Plan, error) {
	pl := &Plan{PerPhone: map[int]Profile{}}
	for ln, rawLine := range strings.Split(src, "\n") {
		for _, clause := range strings.Split(rawLine, ";") {
			clause = strings.TrimSpace(clause)
			if clause == "" || strings.HasPrefix(clause, "#") {
				continue
			}
			if err := pl.parseClause(clause); err != nil {
				return nil, fmt.Errorf("faults: line %d: %w", ln+1, err)
			}
		}
	}
	return pl, nil
}

func (pl *Plan) parseClause(clause string) error {
	head, body, ok := strings.Cut(clause, ":")
	if !ok {
		return fmt.Errorf("clause %q missing ':'", clause)
	}
	head = strings.TrimSpace(head)
	switch {
	case head == "seed":
		n, err := strconv.ParseInt(strings.TrimSpace(body), 10, 64)
		if err != nil {
			return fmt.Errorf("clause %q: seed: %v", clause, err)
		}
		pl.Seed = n
		return nil
	case head == "wave":
		var w Wave
		if err := applyWaveClauses(&w, body); err != nil {
			return fmt.Errorf("clause %q: %w", clause, err)
		}
		pl.Waves = append(pl.Waves, w)
		return nil
	case head == "kill-primary":
		var k PrimaryKill
		if err := applyKillClauses(&k, body); err != nil {
			return fmt.Errorf("clause %q: %w", clause, err)
		}
		pl.PrimaryKills = append(pl.PrimaryKills, k)
		return nil
	case head == "partition":
		var pt Partition
		if err := applyPartitionClauses(&pt, body); err != nil {
			return fmt.Errorf("clause %q: %w", clause, err)
		}
		pl.Partitions = append(pl.Partitions, pt)
		return nil
	case head == "liar", head == "lazy-result", head == "corrupt-result":
		var d ByzDirective
		if err := applyByzClauses(&d, body); err != nil {
			return fmt.Errorf("clause %q: %w", clause, err)
		}
		switch head {
		case "liar":
			pl.Liar = d
		case "lazy-result":
			pl.LazyResult = d
		case "corrupt-result":
			pl.CorruptResult = d
		}
		return nil
	case strings.HasPrefix(head, "phone"):
		target := strings.TrimSpace(strings.TrimPrefix(head, "phone"))
		if target == "*" {
			if err := applyClauses(&pl.Default, body); err != nil {
				return fmt.Errorf("clause %q: %w", clause, err)
			}
			return nil
		}
		id, err := strconv.Atoi(target)
		if err != nil {
			return fmt.Errorf("clause %q: bad phone id %q: %v", clause, target, err)
		}
		p := pl.PerPhone[id]
		if err := applyClauses(&p, body); err != nil {
			return fmt.Errorf("clause %q: %w", clause, err)
		}
		pl.PerPhone[id] = p
		return nil
	default:
		return fmt.Errorf("clause %q must start with 'phone', 'wave', 'seed', 'kill-primary', 'partition', 'liar', 'lazy-result' or 'corrupt-result'", clause)
	}
}

func applyKillClauses(k *PrimaryKill, body string) error {
	sawAt := false
	for _, field := range strings.Fields(body) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("setting %q is not key=value", field)
		}
		switch key {
		case "at", "resurrect":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("%s: want non-negative duration, got %q", key, val)
			}
			if key == "at" {
				k.At, sawAt = d, true
			} else {
				k.Resurrect = d
			}
		default:
			return fmt.Errorf("unknown kill-primary setting %q", key)
		}
	}
	if !sawAt {
		return fmt.Errorf("kill-primary requires at=")
	}
	return nil
}

func applyPartitionClauses(pt *Partition, body string) error {
	sawStart := false
	for _, field := range strings.Fields(body) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("setting %q is not key=value", field)
		}
		switch key {
		case "start", "duration":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("%s: want non-negative duration, got %q", key, val)
			}
			if key == "start" {
				pt.Start, sawStart = d, true
			} else {
				pt.Duration = d
			}
		case "target":
			if val != "replica" && val != "workers" {
				return fmt.Errorf("target: want \"replica\" or \"workers\", got %q", val)
			}
			pt.Target = val
		default:
			return fmt.Errorf("unknown partition setting %q", key)
		}
	}
	if !sawStart {
		return fmt.Errorf("partition requires start=")
	}
	if pt.Target == "" {
		return fmt.Errorf("partition requires target=")
	}
	return nil
}

func applyByzClauses(d *ByzDirective, body string) error {
	d.Prob = 1
	for _, field := range strings.Fields(body) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("setting %q is not key=value", field)
		}
		switch key {
		case "frac", "prob":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 1 {
				return fmt.Errorf("%s: want fraction in (0,1], got %q", key, val)
			}
			if key == "frac" {
				d.Frac = f
			} else {
				d.Prob = f
			}
		default:
			return fmt.Errorf("unknown byzantine setting %q", key)
		}
	}
	if d.Frac == 0 {
		return fmt.Errorf("byzantine clause requires frac=")
	}
	return nil
}

func applyClauses(p *Profile, body string) error {
	for _, field := range strings.Fields(body) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("setting %q is not key=value", field)
		}
		switch key {
		case "latency", "jitter":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
			ms := float64(d) / float64(time.Millisecond)
			if key == "latency" {
				p.LatencyMs = ms
			} else {
				p.JitterMs = ms
			}
		case "bw":
			f, err := strconv.ParseFloat(strings.TrimSuffix(val, "KBps"), 64)
			if err != nil {
				return fmt.Errorf("bw: %v", err)
			}
			p.BandwidthKBps = f
		case "partial", "corrupt", "cut", "refuse":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("%s: want probability in [0,1], got %q", key, val)
			}
			switch key {
			case "partial":
				p.PartialWrite = f
			case "corrupt":
				p.CorruptProb = f
			case "cut":
				p.CutProb = f
			case "refuse":
				p.RefuseProb = f
			}
		case "cut-every", "max-cuts", "refuse-every":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("%s: want non-negative count, got %q", key, val)
			}
			switch key {
			case "cut-every":
				p.CutEvery = n
			case "max-cuts":
				p.MaxCuts = n
			case "refuse-every":
				p.RefuseEvery = n
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("seed: %v", err)
			}
			p.Seed = n
		default:
			return fmt.Errorf("unknown setting %q", key)
		}
	}
	return nil
}

func applyWaveClauses(w *Wave, body string) error {
	for _, field := range strings.Fields(body) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("setting %q is not key=value", field)
		}
		switch key {
		case "frac":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 1 {
				return fmt.Errorf("frac: want fraction in (0,1], got %q", val)
			}
			w.Frac = f
		case "start", "spread", "replug-after":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("%s: want non-negative duration, got %q", key, val)
			}
			switch key {
			case "start":
				w.Start = d
			case "spread":
				w.Spread = d
			case "replug-after":
				w.ReplugAfter = d
			}
		default:
			return fmt.Errorf("unknown wave setting %q", key)
		}
	}
	if w.Frac == 0 {
		return fmt.Errorf("wave requires frac=")
	}
	return nil
}
