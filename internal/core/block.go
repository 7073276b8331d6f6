package core

import (
	"fmt"

	"kronbip/internal/exec"
)

// 2D-blocked edge layout — the one partition every edge stream is cut
// from.
//
// Stream rows are the |E_A| factor edges (term 0) followed by the +I
// self loops of each chain prefix (terms t >= 1; term 1 exists only in
// mode (ii)); rows of term t occupy [termOff[t], termOff[t+1]) and each
// emits termPer[t] product edges.  Blocks refine the row space with a
// second, orthogonal dimension: the edge list of the LAST chain factor
// B_K.  Every product edge terminates in exactly one B_K edge (the base
// case of the chain expansion walks E_{B_K} in order, emitting one or
// two product edges per B_K edge), so
//
//	block (r, c) of R×C  =  { edges whose stream row ∈ rowStripe(r, R)
//	                          and whose B_K edge index ∈ colStripe(c, C) }
//
// partitions the edge set into R·C deterministic, disjoint blocks whose
// union is exactly the EachEdge stream.  Each block's edge count has an
// O(K) closed form: every row of term t emits termPer[t]/|E_{B_K}|
// product edges per B_K edge — an exact integer by construction, since
// every term's multiplicity carries a trailing |E_{B_K}| factor — so a
// coordinator can size, balance, and verify block leases without
// generating anything (internal/distgen).
//
// Block (0, 0) of 1×1 is the whole product in canonical order, and a
// full-width block (r, 0) of R×1 is a 1D shard.  For C > 1 the
// within-block order is the canonical order restricted to the block;
// concatenating blocks in (row, col)-major block order is a
// deterministic permutation of the canonical stream, reproduced
// identically by every replica.  Offsets inside a block count edges in
// that order, so a range [lo, hi) of block (0, 0) of 1×1 is a range of
// the canonical stream.

// numRows returns the stream row count: every term's rows, fixed (and
// overflow-checked) at construction by computeLayout.
func (p *Product) numRows() int {
	return p.termOff[len(p.termOff)-1]
}

// stripe validates part i of n and returns its half-open share of
// [0, size).  Bounds come from exec.Stripe, which never forms i·size,
// so huge extents cannot overflow; n may exceed size — the surplus
// stripes are empty, never an error.
func stripe(what string, i, n, size int) (lo, hi int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("core: %s count must be positive, got %d", what, n)
	}
	if i < 0 || i >= n {
		return 0, 0, fmt.Errorf("core: %s %d out of range [0,%d)", what, i, n)
	}
	lo, hi = exec.Stripe(i, n, size)
	return lo, hi, nil
}

// blockRanges validates (row, nrows, col, ncols) and resolves the
// block's half-open row range and last-factor edge-index range.
func (p *Product) blockRanges(row, nrows, col, ncols int) (rlo, rhi, clo, chi int, err error) {
	if rlo, rhi, err = stripe("row", row, nrows, p.numRows()); err != nil {
		return 0, 0, 0, 0, err
	}
	if clo, chi, err = stripe("col", col, ncols, p.mLast); err != nil {
		return 0, 0, 0, 0, err
	}
	return rlo, rhi, clo, chi, nil
}

// blockTerm returns the stream rows [first, first+rows) of term t that
// fall in row band [rlo, rhi), and the edges each of them emits in
// column stripe [clo, chi).  termPer was overflow-checked against |E_C|
// at construction, so no product of these can wrap.
func (p *Product) blockTerm(t, rlo, rhi, clo, chi int) (first, rows int, per int64) {
	first = max(rlo, p.termOff[t])
	rows = max(0, min(rhi, p.termOff[t+1])-first)
	if p.mLast > 0 {
		per = p.termPer[t] / int64(p.mLast) * int64(chi-clo)
	}
	return first, rows, per
}

// BlockEdgeCount returns the number of edges block (row, col) of an
// nrows×ncols blocking will emit, without streaming — O(K) closed form:
// Σ_t rowOverlap(t)·(termPer[t]/|E_{B_K}|)·colSpan.
func (p *Product) BlockEdgeCount(row, nrows, col, ncols int) (int64, error) {
	rlo, rhi, clo, chi, err := p.blockRanges(row, nrows, col, ncols)
	if err != nil {
		return 0, err
	}
	return p.blockEdges(rlo, rhi, clo, chi), nil
}

// blockEdges is BlockEdgeCount on resolved block ranges.
func (p *Product) blockEdges(rlo, rhi, clo, chi int) int64 {
	var total int64
	for t := 0; t < len(p.termOff)-1; t++ {
		_, rows, per := p.blockTerm(t, rlo, rhi, clo, chi)
		total += int64(rows) * per
	}
	return total
}

// ShardEdgeCount returns the number of edges shard `shard` of `nshards`
// (block (shard, 0) of nshards×1) will emit, without streaming.
func (p *Product) ShardEdgeCount(shard, nshards int) (int64, error) {
	return p.BlockEdgeCount(shard, nshards, 0, 1)
}

// BlockTermEdgeStarts returns the ascending block-local edge offsets at
// which each (non-empty) term's rows begin, with the block's
// BlockEdgeCount appended — the hard-cut schedule for the binary wire
// format's frame alignment: a frame never spans a term boundary, so
// resuming at any term start (or any aligned frame boundary within a
// term) reproduces the canonical framing byte for byte.
func (p *Product) BlockTermEdgeStarts(row, nrows, col, ncols int) ([]int64, error) {
	rlo, rhi, clo, chi, err := p.blockRanges(row, nrows, col, ncols)
	if err != nil {
		return nil, err
	}
	cuts := make([]int64, 0, len(p.termOff))
	var acc int64
	for t := 0; t < len(p.termOff)-1; t++ {
		if _, rows, per := p.blockTerm(t, rlo, rhi, clo, chi); rows > 0 && per > 0 {
			cuts = append(cuts, acc)
			acc += int64(rows) * per
		}
	}
	return append(cuts, acc), nil
}

// TermEdgeStarts is BlockTermEdgeStarts for the canonical order (block
// (0, 0) of 1×1), ending in NumEdges().
func (p *Product) TermEdgeStarts() []int64 {
	cuts, _ := p.BlockTermEdgeStarts(0, 1, 0, 1)
	return cuts
}

// checkRange validates a half-open edge range against a total.
func checkRange(lo, hi, total int64) error {
	if lo < 0 || hi < lo || hi > total {
		return fmt.Errorf("core: edge range [%d,%d) out of bounds [0,%d)", lo, hi, total)
	}
	return nil
}

// seekBlockEdge locates block-local edge offset k of the block rows
// [rlo, rhi) × last-factor edges [clo, chi): the term and stream row
// containing it and the remaining within-row offset.  O(K).  k must be
// below the block's edge count.
func (p *Product) seekBlockEdge(rlo, rhi, clo, chi int, k int64) (t, row int, off int64) {
	for t := 0; t < len(p.termOff)-1; t++ {
		first, rows, per := p.blockTerm(t, rlo, rhi, clo, chi)
		n := int64(rows) * per
		if k < n {
			return t, first + int(k/per), k % per
		}
		k -= n
	}
	return len(p.termOff) - 2, rhi, 0
}

// rangeDigit is one level's coordinate inside a row's chain expansion:
// the factor-edge index at that level and the orientation (0 canonical,
// 1 flipped; always 0 at a self-loop term's anchor level).
type rangeDigit struct {
	e, o int
}

// rowDigits decomposes a within-row offset of a term-t row into the
// per-level (edge, orientation) coordinates of the chain expansion, the
// last level least significant.  span is the base level's edge extent:
// the block's column-stripe width.  The returned slice is indexed by
// level (1-based); levels above the term's anchor are unused.
func (p *Product) rowDigits(t int, off int64, span int) []rangeDigit {
	k := len(p.bs)
	anchor := max(t, 1)
	digits := make([]rangeDigit, k+1)
	for u := k; u >= anchor; u-- {
		m := int64(len(p.bs[u-1].edges))
		if u == k {
			m = int64(span)
		}
		if t == 0 || u > t { // both orientations at this level
			d := off % (2 * m)
			off /= 2 * m
			digits[u] = rangeDigit{e: int(d / 2), o: int(d % 2)}
		} else {
			digits[u] = rangeDigit{e: int(off % m)}
			off /= m
		}
	}
	return digits
}
