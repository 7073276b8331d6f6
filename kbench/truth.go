package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"

	"kronbip/internal/core"
	"kronbip/internal/graph"
	"kronbip/internal/spec"
)

// Truth-mix request plan.  Request i of a run is a pure function of the
// workload seed and i, so two connections pulling indices from one
// counter issue the same sequence whatever the interleaving, and the
// cold count of any prefix is known exactly.

const (
	kindStats = iota
	kindVertex
	kindEdge
	numKinds
)

// coldEvery places exactly one cold request in every block of this many
// (2%), at a seeded position inside the block.
const coldEvery = 50

// coldFactor is the factor of the cold requests; every cold request uses
// a seed no earlier request used, so each one builds a product (a cache
// miss) and, past the cache capacity, evicts one.
const coldFactor = "sf100x200x800"

// truthQuery is one planned request.
type truthQuery struct {
	spec   int   // index into the workload's truth specs; -1 when cold
	seed   int64 // cold spec seed
	kind   int
	vertex int
	v, w   int
}

// mix64 hashes (a, b) to 64 bits.
func mix64(a, b uint64) uint64 { return mix(int(a), int(b)) ^ mix(int(b>>32), int(a>>32)) }

// planner draws truth queries over a fixed set of products.
type planner struct {
	seed   uint64
	specs  []spec.Spec
	prods  []*core.Product
	cold   bool // plan 2% cold requests
	coldN  int  // vertex count of every cold product (fixed by the factor sizes)
	coldSd int64
}

// isCold reports whether request i is one of the plan's cold requests.
func (pl *planner) isCold(i int64) bool {
	return pl.cold && int64(mix64(pl.seed^0xc01d, uint64(i/coldEvery))%coldEvery) == i%coldEvery
}

func (pl *planner) at(i int64) truthQuery {
	h := mix64(pl.seed, uint64(i))
	if pl.isCold(i) {
		return truthQuery{spec: -1, seed: pl.coldSd + i, kind: kindVertex, vertex: int(h % uint64(pl.coldN))}
	}
	q := truthQuery{spec: int(h % uint64(len(pl.prods))), kind: int(h >> 8 % numKinds)}
	p := pl.prods[q.spec]
	h2 := mix64(h, 0x5eed)
	switch q.kind {
	case kindVertex:
		q.vertex = int(h2 % uint64(p.N()))
	case kindEdge:
		off := int64(h2 % uint64(p.NumEdges()))
		_ = p.EachEdgeRange(off, off+1, func(v, w int) bool { q.v, q.w = v, w; return true })
	}
	return q
}

// specOf resolves the query's spec.
func (pl *planner) specOf(q truthQuery) spec.Spec {
	if q.spec < 0 {
		return spec.Spec{Factors: []string{coldFactor}, Mode: spec.ModeSelfLoop, Seed: q.seed}
	}
	return pl.specs[q.spec]
}

// url renders the request path and query.
func (pl *planner) url(q truthQuery) string {
	vals := specQuery(pl.specOf(q))
	path := "/v1/truth?"
	switch q.kind {
	case kindStats:
		path = "/v1/stats?"
	case kindVertex:
		vals.Set("vertex", strconv.Itoa(q.vertex))
	case kindEdge:
		vals.Set("edge", strconv.Itoa(q.v)+","+strconv.Itoa(q.w))
	}
	return path + vals.Encode()
}

// The response shapes of /v1/truth and /v1/stats, decoded independently
// of the server's own types.
type truthResp struct {
	Spec             string       `json:"spec"`
	N                int          `json:"n"`
	NumEdges         int64        `json:"num_edges"`
	GlobalFourCycles int64        `json:"global_four_cycles"`
	Vertex           *vertexTruth `json:"vertex,omitempty"`
	Edge             *edgeTruth   `json:"edge,omitempty"`
}

type vertexTruth struct {
	Vertex     int    `json:"vertex"`
	FactorA    int    `json:"factor_a"`
	FactorB    int    `json:"factor_b"`
	Digits     []int  `json:"digits"`
	Degree     int64  `json:"degree"`
	TwoWalks   int64  `json:"two_walks"`
	FourCycles int64  `json:"four_cycles"`
	Side       string `json:"side"`
}

type edgeTruth struct {
	V          int     `json:"v"`
	W          int     `json:"w"`
	FourCycles int64   `json:"four_cycles"`
	Clustering float64 `json:"clustering"`
}

type statsResp struct {
	Spec             string        `json:"spec"`
	Mode             string        `json:"mode"`
	Arity            int           `json:"arity"`
	FactorA          factorStats   `json:"factor_a"`
	FactorB          factorStats   `json:"factor_b"`
	Factors          []factorStats `json:"factors"`
	N                int           `json:"n"`
	NU               int           `json:"n_u"`
	NW               int           `json:"n_w"`
	NumEdges         int64         `json:"num_edges"`
	GlobalFourCycles int64         `json:"global_four_cycles"`
	Connected        bool          `json:"connected_by_theorem"`
}

type factorStats struct {
	N          int   `json:"n"`
	Edges      int   `json:"edges"`
	FourCycles int64 `json:"four_cycles"`
}

func statsOf(f *core.Factor) factorStats {
	return factorStats{N: f.N(), Edges: f.G.NumEdges(), FourCycles: f.Global4}
}

// wantStats is the /v1/stats answer computed in process.
func wantStats(sp spec.Spec, p *core.Product) statsResp {
	nu, nw := p.PartSizes()
	var fs []factorStats
	for _, f := range p.Factors() {
		fs = append(fs, statsOf(f))
	}
	return statsResp{
		Spec: sp.Canonical(), Mode: p.Mode().String(), Arity: p.Arity(),
		FactorA: statsOf(p.FactorA()), FactorB: statsOf(p.FactorB()), Factors: fs,
		N: p.N(), NU: nu, NW: nw, NumEdges: p.NumEdges(),
		GlobalFourCycles: p.GlobalFourCycles(), Connected: p.ConnectedByTheorem(),
	}
}

// wantTruth is the /v1/truth answer computed in process.
func wantTruth(sp spec.Spec, p *core.Product, q truthQuery) (truthResp, error) {
	r := truthResp{Spec: sp.Canonical(), N: p.N(), NumEdges: p.NumEdges(), GlobalFourCycles: p.GlobalFourCycles()}
	switch q.kind {
	case kindVertex:
		d := p.DigitsOf(q.vertex)
		side := "U"
		if p.SideOf(q.vertex) == graph.SideW {
			side = "W"
		}
		r.Vertex = &vertexTruth{
			Vertex: q.vertex, FactorA: d[0], FactorB: d[len(d)-1], Digits: d,
			Degree: p.DegreeAt(q.vertex), TwoWalks: p.TwoWalksAt(q.vertex),
			FourCycles: p.VertexFourCyclesAt(q.vertex), Side: side,
		}
	case kindEdge:
		sq, err := p.EdgeFourCyclesAt(q.v, q.w)
		if err != nil {
			return r, err
		}
		gamma, err := p.EdgeClusteringAt(q.v, q.w)
		if err != nil {
			return r, err
		}
		r.Edge = &edgeTruth{V: q.v, W: q.w, FourCycles: sq, Clustering: gamma}
	}
	return r, nil
}

// checkAnswer decodes a truth or stats body and compares every field
// with the in-process closed form.
func checkAnswer(sp spec.Spec, p *core.Product, q truthQuery, body []byte) error {
	var got, want any
	if q.kind == kindStats {
		var g statsResp
		if err := json.Unmarshal(body, &g); err != nil {
			return fmt.Errorf("%w: stats body: %v", errCheck, err)
		}
		got, want = g, wantStats(sp, p)
	} else {
		var g truthResp
		if err := json.Unmarshal(body, &g); err != nil {
			return fmt.Errorf("%w: truth body: %v", errCheck, err)
		}
		w, err := wantTruth(sp, p, q)
		if err != nil {
			return err
		}
		got, want = g, w
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Errorf("%w: %s answered %s, closed form %s", errCheck, sp.Canonical(), g, w)
	}
	return nil
}

// answer is one completed request kept for verification after the phase.
type answer struct {
	pl   *planner
	q    truthQuery
	body []byte
}
