package lint

// The dataflow half of the analysis substrate: a small forward engine
// over the CFG. Facts are string-keyed sets (held mutexes, tainted
// names); the join at merge points is a union, which keeps the engine
// optimistic the same way the v1 walker was — a fact holds after a
// merge if it held on any falling-through path, because here false
// positives hurt more than false negatives. Analyzers supply a
// transfer function applied node by node; after the fixpoint they
// re-walk every block with its stable entry facts to emit diagnostics
// in deterministic source order.

import "go/ast"

// Facts is a set of dataflow facts keyed by stable strings.
type Facts map[string]bool

// Clone copies the fact set.
func (f Facts) Clone() Facts {
	cp := make(Facts, len(f))
	for k, v := range f {
		if v {
			cp[k] = true
		}
	}
	return cp
}

// union merges src into dst, reporting whether dst changed.
func (f Facts) union(src Facts) bool {
	changed := false
	for k, v := range src {
		if v && !f[k] {
			f[k] = true
			changed = true
		}
	}
	return changed
}

// TransferFunc mutates facts in place for one CFG node's effects.
type TransferFunc func(n ast.Node, facts Facts)

// Forward runs the worklist algorithm: entry starts with init, block
// entry facts join (union) over predecessors, and transfer is applied
// node by node. It returns the stable entry facts per block.
func Forward(cfg *CFG, init Facts, transfer TransferFunc) map[*Block]Facts {
	in := map[*Block]Facts{cfg.Entry: init.Clone()}
	for _, b := range cfg.Blocks {
		if _, ok := in[b]; !ok {
			in[b] = Facts{}
		}
	}
	// Every block is seeded, not just the entry: a block whose entry
	// facts never change still generates facts (a mid-function Lock)
	// that must flow to its successors at least once.
	work := make([]*Block, 0, len(cfg.Blocks))
	queued := make(map[*Block]bool, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		work = append(work, b)
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := in[b].Clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		for _, s := range b.Succs {
			if in[s].union(out) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// Visit replays the stable solution in deterministic block order,
// calling visit before transfer on every node with the facts that hold
// immediately before it. Analyzers emit their diagnostics here.
func Visit(cfg *CFG, in map[*Block]Facts, transfer TransferFunc, visit func(n ast.Node, facts Facts)) {
	for _, b := range cfg.Blocks {
		facts := in[b].Clone()
		for _, n := range b.Nodes {
			visit(n, facts)
			transfer(n, facts)
		}
	}
}
