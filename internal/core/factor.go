// Package core implements the paper's contribution: non-stochastic
// bipartite Kronecker product graphs C = A ⊗ B (Assumption 1(i)) and
// C = (A+I_A) ⊗ B (Assumption 1(ii)) with exact ground truth for degrees,
// two-walk counts, per-vertex and per-edge 4-cycle (butterfly) counts,
// global 4-cycle counts, bipartite edge clustering coefficients, and
// connectivity/bipartiteness guarantees (Theorems 1–6).
//
// All ground truth is computed from the factors alone: O(|V_A|+|V_B|)
// state answers point queries in O(1) and global counts in sublinear time,
// while the product itself — which may have millions of edges — is only
// ever streamed or optionally materialized for validation.
//
// Index convention: the paper's 1-based maps α, β, γ become 0-based here:
// product vertex p = i·n_B + k pairs factor vertices (i, k), with
// i = p / n_B and k = p % n_B.
package core

import (
	"fmt"
	"sync"

	"kronbip/internal/count"
	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

// Factor bundles a factor graph with the per-vertex and per-edge statistics
// every Kronecker ground-truth formula consumes.  It is the paper's
// O(|E_C|^{1/2})-sized data structure: all product-level ground truth
// derives from two of these.
type Factor struct {
	G *graph.Graph

	D  []int64 // degree vector d = A·1
	W2 []int64 // two-walk vector w⁽²⁾ = A²·1
	S  []int64 // per-vertex 4-cycle counts s (Def. 8)

	// Sq stores ◊_ij (Def. 9) at every stored edge of A, symmetric.
	Sq *grb.Matrix[int64]

	Global4   int64 // number of distinct 4-cycles in the factor
	Triangles int64 // number of distinct 3-cycles (0 for bipartite factors)

	// edges is G.Edges(), filled by the first edge walk and kept: the
	// walkers read each chain level's edge list from here, since
	// G.Edges() rebuilds the list from CSR on every call.  Filled lazily
	// because a server caches many products that only ever answer
	// closed-form queries, and those need not hold the copy.
	edgesOnce sync.Once
	edges     []graph.Edge
}

// NewFactor validates that g is a simple undirected graph (no self loops)
// and precomputes its statistics.
func NewFactor(g *graph.Graph) (*Factor, error) {
	if g.NumSelfLoops() > 0 {
		return nil, fmt.Errorf("core: factor has self loops; Kronecker formulas require loop-free factors (self loops are added by the product mode, not the factor)")
	}
	s, err := count.VertexButterfliesAlgebraic(g)
	if err != nil {
		return nil, fmt.Errorf("core: factor vertex 4-cycles: %w", err)
	}
	sq, err := count.EdgeButterfliesAlgebraic(g)
	if err != nil {
		return nil, fmt.Errorf("core: factor edge 4-cycles: %w", err)
	}
	tri, err := count.GlobalTriangles(g)
	if err != nil {
		return nil, fmt.Errorf("core: factor triangles: %w", err)
	}
	sum := grb.SumVec(s)
	f := &Factor{
		G:         g,
		D:         g.Degrees(),
		W2:        g.TwoWalks(),
		S:         s,
		Sq:        sq,
		Global4:   sum / 4,
		Triangles: tri,
	}
	return f, nil
}

// cacheEdges fills f.edges once; every edge walk calls it before
// reading the list.
func (f *Factor) cacheEdges() {
	f.edgesOnce.Do(func() { f.edges = f.G.Edges() })
}

// N returns the number of factor vertices.
func (f *Factor) N() int { return f.G.N() }

// SqAt returns ◊_ij for a factor edge, or an error for a non-edge.
func (f *Factor) SqAt(i, j int) (int64, error) {
	if !f.G.HasEdge(i, j) {
		return 0, fmt.Errorf("core: (%d,%d) is not a factor edge", i, j)
	}
	return f.Sq.At(i, j), nil
}

// diag4 returns diag(A⁴)_i = 2s_i + d_i² + w⁽²⁾_i − d_i (Fig. 2).
func (f *Factor) diag4(i int) int64 {
	return 2*f.S[i] + f.D[i]*f.D[i] + f.W2[i] - f.D[i]
}

// diag4Vec returns diag(A⁴) as a vector.
func (f *Factor) diag4Vec() []int64 {
	out := make([]int64, f.N())
	for i := range out {
		out[i] = f.diag4(i)
	}
	return out
}

// walk3 returns W^(3)(i,j) = (A³)_ij at a factor edge:
// ◊_ij + d_i + d_j − 1 (Fig. 4).  Callers must pass an edge.
func (f *Factor) walk3(i, j int) int64 {
	return f.Sq.At(i, j) + f.D[i] + f.D[j] - 1
}
