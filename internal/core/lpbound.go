package core

import (
	"fmt"

	"cwc/internal/lp"
)

// The paper benchmarks the greedy scheduler against a lower bound from an
// LP relaxation of SCH (§6, Figure 13): relax the integrality of u_ij,
// rewrite the quadratic coupling as l_ij <= L_j·u_ij, and solve
//
//	min T
//	s.t. Σ_j (E_j·b_i·u_ij + (b_i+c_ij)·l_ij) <= T   ∀i
//	     Σ_i l_ij = L_j                              ∀j
//	     l_ij <= L_j·u_ij, 0 <= u_ij <= 1
//	     Σ_i u_ij = 1 for atomic j
//
// giving T_relaxed <= T_optimal <= T_cwc.
//
// Substituting the optimal u_ij = l_ij/L_j collapses the relaxation to an
// equivalent LP over l alone with effective rate w_ij = E_j·b_i/L_j + b_i
// + c_ij — far smaller and what RelaxedLowerBound solves. The full form is
// kept (RelaxedLowerBoundFull) and property-tested equal to the reduced
// one.

// RelaxedLowerBound solves the reduced LP relaxation and returns
// T_relaxed in ms.
func RelaxedLowerBound(inst *Instance) (float64, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	nP, nJ := len(inst.Phones), len(inst.Jobs)
	p := lp.NewProblem(lp.Minimize)
	T := p.AddVar("T")
	if err := p.SetObjective(T, 1); err != nil {
		return 0, err
	}
	l := make([][]int, nP)
	for i := range l {
		l[i] = make([]int, nJ)
		for j := range l[i] {
			l[i][j] = p.AddVar(fmt.Sprintf("l_%d_%d", i, j))
		}
	}
	// Per-phone load: sum_j w_ij l_ij - T <= 0.
	for i, ph := range inst.Phones {
		terms := make([]lp.Term, 0, nJ+1)
		for j, job := range inst.Jobs {
			w := job.ExecKB*ph.BMsPerKB/job.InputKB + inst.Rate(i, j)
			terms = append(terms, lp.Term{Var: l[i][j], Coef: w})
		}
		terms = append(terms, lp.Term{Var: T, Coef: -1})
		if err := p.AddConstraint(terms, lp.LE, 0); err != nil {
			return 0, err
		}
	}
	// Coverage: sum_i l_ij = L_j.
	for j, job := range inst.Jobs {
		terms := make([]lp.Term, 0, nP)
		for i := 0; i < nP; i++ {
			terms = append(terms, lp.Term{Var: l[i][j], Coef: 1})
		}
		if err := p.AddConstraint(terms, lp.EQ, job.InputKB); err != nil {
			return 0, err
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return 0, fmt.Errorf("core: LP relaxation: %w", err)
	}
	return sol.Objective, nil
}

// RelaxedLowerBoundFull solves the paper's full relaxation with explicit
// u and l variables. It exists to validate the reduced form; prefer
// RelaxedLowerBound for real instances (the full LP is ~3x the variables
// and much slower).
func RelaxedLowerBoundFull(inst *Instance) (float64, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	nP, nJ := len(inst.Phones), len(inst.Jobs)
	p := lp.NewProblem(lp.Minimize)
	T := p.AddVar("T")
	if err := p.SetObjective(T, 1); err != nil {
		return 0, err
	}
	u := make([][]int, nP)
	l := make([][]int, nP)
	for i := 0; i < nP; i++ {
		u[i] = make([]int, nJ)
		l[i] = make([]int, nJ)
		for j := 0; j < nJ; j++ {
			u[i][j] = p.AddVar(fmt.Sprintf("u_%d_%d", i, j))
			l[i][j] = p.AddVar(fmt.Sprintf("l_%d_%d", i, j))
		}
	}
	for i, ph := range inst.Phones {
		terms := make([]lp.Term, 0, 2*nJ+1)
		for j, job := range inst.Jobs {
			terms = append(terms,
				lp.Term{Var: u[i][j], Coef: job.ExecKB * ph.BMsPerKB},
				lp.Term{Var: l[i][j], Coef: inst.Rate(i, j)},
			)
		}
		terms = append(terms, lp.Term{Var: T, Coef: -1})
		if err := p.AddConstraint(terms, lp.LE, 0); err != nil {
			return 0, err
		}
	}
	for j, job := range inst.Jobs {
		cover := make([]lp.Term, 0, nP)
		for i := 0; i < nP; i++ {
			cover = append(cover, lp.Term{Var: l[i][j], Coef: 1})
			// l_ij <= L_j * u_ij
			if err := p.AddConstraint([]lp.Term{
				{Var: l[i][j], Coef: 1},
				{Var: u[i][j], Coef: -job.InputKB},
			}, lp.LE, 0); err != nil {
				return 0, err
			}
			// u_ij <= 1
			if err := p.AddConstraint([]lp.Term{{Var: u[i][j], Coef: 1}}, lp.LE, 1); err != nil {
				return 0, err
			}
		}
		if err := p.AddConstraint(cover, lp.EQ, job.InputKB); err != nil {
			return 0, err
		}
		if job.Atomic {
			sum := make([]lp.Term, 0, nP)
			for i := 0; i < nP; i++ {
				sum = append(sum, lp.Term{Var: u[i][j], Coef: 1})
			}
			if err := p.AddConstraint(sum, lp.EQ, 1); err != nil {
				return 0, err
			}
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return 0, fmt.Errorf("core: full LP relaxation: %w", err)
	}
	return sol.Objective, nil
}
