package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
	"kronbip/internal/obs"
)

// The differential property suite for the one production edge loop,
// EachEdgeBlockRangeBatchContext, and its wrappers.  For a product and
// an nrows×ncols grid it checks, against two independent routes — the
// per-edge reference walker EachEdge and the Materialize oracle — that:
//
//   - each block's walk is exactly the subsequence of the EachEdge walk
//     made of that block's edges (row from the stream position, column
//     from the last factor's digits of the endpoints);
//   - every block range [lo, hi) is the matching contiguous slice of the
//     block's walk, and every canonical range is a slice of EachEdge;
//   - every block's count equals BlockEdgeCount;
//   - the union of all blocks is the oracle's edge set, no duplicates.
//
// FuzzBlockRangeWalk drives it over random grids (ncols up to past
// |E_{B_K}|), random ranges and random products with K ≤ 4 in both
// modes; its seed corpus runs under plain `go test`.  The named tests
// below are fixed grids of the same check, one per walker variant the
// primitive replaced (a shard is an n×1 grid, a full stream 1×1).

// ordered is one directed product edge as a walker emits it.
type ordered struct{ v, w int }

// drain collects a batch walk, checking the batch contract's shape:
// non-empty batches of at most exec.BatchLen edges.
func drain(t *testing.T, walk func(yield func([]exec.Edge) bool) error) []ordered {
	t.Helper()
	var out []ordered
	err := walk(func(batch []exec.Edge) bool {
		if len(batch) == 0 || len(batch) > exec.BatchLen {
			t.Fatalf("batch of %d edges (want 1..%d)", len(batch), exec.BatchLen)
		}
		for _, e := range batch {
			out = append(out, ordered{e.V, e.W})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reference is the EachEdge walk.
func reference(p *Product) []ordered {
	var out []ordered
	p.EachEdge(func(v, w int) bool { out = append(out, ordered{v, w}); return true })
	return out
}

// oracleSet is the Materialize oracle's undirected edge set.
func oracleSet(t *testing.T, p *Product) map[graph.Edge]bool {
	t.Helper()
	g, err := p.Materialize(1)
	if err != nil {
		t.Fatal(err)
	}
	set := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		set[e] = true
	}
	return set
}

func undirected(e ordered) graph.Edge {
	if e.v > e.w {
		return graph.Edge{U: e.w, V: e.v}
	}
	return graph.Edge{U: e.v, V: e.w}
}

// stripeOf maps every index of [0, size) to its stripe out of n.
func stripeOf(n, size int) []int {
	out := make([]int, size)
	for s := 0; s < n; s++ {
		lo, hi := exec.Stripe(s, n, size)
		for i := lo; i < hi; i++ {
			out[i] = s
		}
	}
	return out
}

// expectedBlocks buckets the reference walk by block of an nrows×ncols
// grid.  The row of each edge comes from its stream position (every row
// of term t emits termPer[t] edges), the column from the last factor's
// digits of its endpoints, looked up in E_{B_K}.
func expectedBlocks(p *Product, ref []ordered, nrows, ncols int) [][]ordered {
	last := p.bs[len(p.bs)-1]
	col := map[graph.Edge]int{}
	for i, e := range last.G.Edges() {
		col[e] = i
	}
	rowBlock := stripeOf(nrows, p.numRows())
	colBlock := stripeOf(ncols, len(col))
	blocks := make([][]ordered, nrows*ncols)
	row, t, left := -1, 0, int64(0)
	for _, e := range ref {
		for left == 0 {
			row++
			for row >= p.termOff[t+1] {
				t++
			}
			left = p.termPer[t]
		}
		left--
		c := col[undirected(ordered{e.v % last.N(), e.w % last.N()})]
		b := rowBlock[row]*ncols + colBlock[c]
		blocks[b] = append(blocks[b], e)
	}
	return blocks
}

func equalWalks(t *testing.T, what string, got, want []ordered) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkBlockWalks runs the property suite for one product and grid.
// rng picks the ranges; oracle may be nil to skip the Materialize check.
func checkBlockWalks(t *testing.T, p *Product, ref []ordered, oracle map[graph.Edge]bool, nrows, ncols int, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	grid := fmt.Sprintf("%v %dx%d", p, nrows, ncols)
	union := map[graph.Edge]bool{}
	for b, want := range expectedBlocks(p, ref, nrows, ncols) {
		r, c := b/ncols, b%ncols
		what := fmt.Sprintf("%s block (%d,%d)", grid, r, c)
		n, err := p.BlockEdgeCount(r, nrows, c, ncols)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) {
			t.Fatalf("%s: BlockEdgeCount %d, block holds %d", what, n, len(want))
		}
		got := drain(t, func(y func([]exec.Edge) bool) error {
			return p.EachEdgeBlockBatchContext(ctx, r, nrows, c, ncols, y)
		})
		equalWalks(t, what, got, want)
		for _, e := range got {
			if union[undirected(e)] {
				t.Fatalf("%s: edge %v also in an earlier block", what, e)
			}
			union[undirected(e)] = true
		}
		for i := 0; i < 3; i++ {
			lo := rng.Int63n(n + 1)
			hi := lo + rng.Int63n(n-lo+1)
			got := drain(t, func(y func([]exec.Edge) bool) error {
				return p.EachEdgeBlockRangeBatchContext(ctx, r, nrows, c, ncols, lo, hi, y)
			})
			equalWalks(t, fmt.Sprintf("%s [%d,%d)", what, lo, hi), got, want[lo:hi])
		}
	}
	if int64(len(union)) != p.NumEdges() {
		t.Fatalf("%s: blocks cover %d edges, want %d", grid, len(union), p.NumEdges())
	}
	for e := range oracle {
		if !union[e] {
			t.Fatalf("%s: oracle edge %v in no block", grid, e)
		}
	}
	if oracle != nil && len(oracle) != len(union) {
		t.Fatalf("%s: blocks cover %d edges, oracle has %d", grid, len(union), len(oracle))
	}
	n := p.NumEdges()
	lo := rng.Int63n(n + 1)
	hi := lo + rng.Int63n(n-lo+1)
	got := drain(t, func(y func([]exec.Edge) bool) error { return p.EachEdgeRangeBatchContext(ctx, lo, hi, y) })
	equalWalks(t, fmt.Sprintf("%s range [%d,%d)", grid, lo, hi), got, ref[lo:hi])
	got = got[:0]
	if err := p.EachEdgeRange(lo, hi, func(v, w int) bool { got = append(got, ordered{v, w}); return true }); err != nil {
		t.Fatal(err)
	}
	equalWalks(t, fmt.Sprintf("%s per-edge range [%d,%d)", grid, lo, hi), got, ref[lo:hi])
}

// fuzzProduct builds a small chain: k = 1..4 right factors drawn from a
// pool of tiny bipartite graphs (smaller ones for longer chains), with
// A non-bipartite or bipartite in mode (i) and bipartite in mode (ii).
func fuzzProduct(seed int64, k int, selfLoop bool) (*Product, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := []func() *graph.Graph{
		func() *graph.Graph { return gen.Path(2) },
		func() *graph.Graph { return gen.Path(3) },
		func() *graph.Graph { return gen.Star(4) },
		func() *graph.Graph { return gen.DisjointUnion(gen.Path(2), gen.Path(3)) },
		func() *graph.Graph { return gen.Cycle(4) },
		func() *graph.Graph { return gen.ConnectedBipartiteScaleFree(2, 3, 5, rng.Int63()).Graph },
		func() *graph.Graph { return gen.Crown(3).Graph },
	}
	as := []*graph.Graph{gen.Complete(3), gen.Cycle(5), gen.Lollipop(3, 2), gen.Path(3)}
	mode := ModeNonBipartiteFactor
	if selfLoop {
		as = []*graph.Graph{gen.Path(2), gen.Path(3), gen.Star(3), gen.Cycle(4)}
		mode = ModeSelfLoopFactor
	}
	bs := make([]*graph.Graph, k)
	for i := range bs {
		bs[i] = pool[rng.Intn(len(pool)-(k-1)*2)]()
	}
	return NewChainRelaxed(as[rng.Intn(len(as))], mode, bs...)
}

// FuzzBlockRangeWalk is the property suite over random products, grids
// and ranges.
func FuzzBlockRangeWalk(f *testing.F) {
	for i := int64(0); i < 16; i++ {
		f.Add(i, uint8(i%4), i%2 == 1, uint16(i*7), uint16(i*13))
	}
	f.Add(int64(99), uint8(3), true, uint16(0), uint16(1000)) // ncols far past |E_{B_K}|
	f.Add(int64(7), uint8(0), false, uint16(500), uint16(0))  // nrows past the row count
	f.Fuzz(func(t *testing.T, seed int64, k uint8, selfLoop bool, rows, cols uint16) {
		p, err := fuzzProduct(seed, 1+int(k%4), selfLoop)
		if err != nil {
			t.Skip(err)
		}
		if p.NumEdges() > 1<<15 {
			t.Skip("product too large for the oracle")
		}
		nrows := 1 + int(rows)%(2*p.numRows()+1)
		ncols := 1 + int(cols)%(2*p.mLast+2)
		checkBlockWalks(t, p, reference(p), oracleSet(t, p), nrows, ncols, rand.New(rand.NewSource(seed)))
	})
}

// testProducts covers both modes of the two-factor product (self-loop
// rows included) and the chain recursion.
func testProducts(t *testing.T) map[string]*Product {
	t.Helper()
	build := func(p *Product, err error) *Product {
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]*Product{
		"mode1":        build(New(gen.Complete(3), gen.Cycle(6), ModeNonBipartiteFactor)),
		"mode2":        build(New(gen.Star(4), gen.Crown(3).Graph, ModeSelfLoopFactor)),
		"chain":        build(Chain(gen.Path(3), ModeSelfLoopFactor, gen.Path(2), gen.Star(3))),
		"chain-nonbip": build(Chain(gen.Complete(3), ModeNonBipartiteFactor, gen.Crown(3).Graph, gen.Path(3))),
	}
}

// checkGrids runs the property suite on every test product for each
// grid; a grid's rows value < 0 means that many times the row count.
func checkGrids(t *testing.T, seed int64, grids ...[2]int) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range testProducts(t) {
		ref, oracle := reference(p), oracleSet(t, p)
		for _, g := range grids {
			if g[0] < 0 {
				g[0] = -g[0] * p.numRows()
			}
			checkBlockWalks(t, p, ref, oracle, g[0], g[1], rng)
		}
	}
}

func TestEachEdgeShardPartition(t *testing.T) {
	checkGrids(t, 1, [2]int{1, 1}, [2]int{2, 1}, [2]int{3, 1}, [2]int{7, 1}, [2]int{1000, 1})
}

func TestEachEdgeShardBatchPartition(t *testing.T) { checkGrids(t, 2, [2]int{-1, 1}, [2]int{-3, 1}) }

func TestEachEdgeBlockPartition(t *testing.T) {
	checkGrids(t, 3, [2]int{1, 3}, [2]int{2, 2}, [2]int{3, 5}, [2]int{4, 1000})
}

func TestEachEdgeBlockRangeEquivalence(t *testing.T) { checkGrids(t, 4, [2]int{2, 3}, [2]int{3, 2}) }

func TestEachEdgeShardContextPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, p := range testProducts(t) {
		ref := reference(p)
		for trial := 0; trial < 10; trial++ {
			checkBlockWalks(t, p, ref, nil, 1+rng.Intn(2*p.numRows()), 1+rng.Intn(2*p.mLast+1), rng)
		}
	}
}

// TestEachEdgeRangeEquivalence: ranges starting and ending at term
// starts, first row boundaries and mid-row offsets are exact slices of
// the reference walk, per-edge and batched.
func TestEachEdgeRangeEquivalence(t *testing.T) {
	for name, p := range testProducts(t) {
		ref := reference(p)
		ks := p.TermEdgeStarts()
		for _, per := range p.termPer {
			ks = append(ks, per, per/2+1)
		}
		for _, lo := range ks {
			for _, hi := range ks {
				if lo > hi || hi > p.NumEdges() {
					continue
				}
				var got []ordered
				if err := p.EachEdgeRange(lo, hi, func(v, w int) bool { got = append(got, ordered{v, w}); return true }); err != nil {
					t.Fatal(err)
				}
				equalWalks(t, fmt.Sprintf("%s [%d,%d)", name, lo, hi), got, ref[lo:hi])
			}
		}
	}
}

// TestEachEdgeRangeSplitConcat: [0,k) followed by [k,|E|) is the whole
// canonical walk — the resume contract serve's ?offset= relies on.
func TestEachEdgeRangeSplitConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ctx := context.Background()
	for name, p := range testProducts(t) {
		ref, n := reference(p), p.NumEdges()
		for i := 0; i < 8; i++ {
			k := rng.Int63n(n + 1)
			got := drain(t, func(y func([]exec.Edge) bool) error { return p.EachEdgeRangeBatchContext(ctx, 0, k, y) })
			got = append(got, drain(t, func(y func([]exec.Edge) bool) error { return p.EachEdgeRangeBatchContext(ctx, k, n, y) })...)
			equalWalks(t, fmt.Sprintf("%s split at %d", name, k), got, ref)
		}
	}
}

// TestEachEdgeBatchContextWholeStream: the whole-stream wrapper is the
// reference walk.
func TestEachEdgeBatchContextWholeStream(t *testing.T) {
	for name, p := range testProducts(t) {
		got := drain(t, func(y func([]exec.Edge) bool) error { return p.EachEdgeBatchContext(context.Background(), y) })
		equalWalks(t, name, got, reference(p))
	}
}

// TestEachEdgeBlockCanonicalOrder: block (0,0) of 1×1 is the canonical
// order edge for edge, and the whole-stream, range and block wrappers
// agree on it.
func TestEachEdgeBlockCanonicalOrder(t *testing.T) {
	ctx := context.Background()
	for name, p := range testProducts(t) {
		ref := reference(p)
		equalWalks(t, name+" 1x1 block", drain(t, func(y func([]exec.Edge) bool) error {
			return p.EachEdgeBlockBatchContext(ctx, 0, 1, 0, 1, y)
		}), ref)
		equalWalks(t, name+" 1x1 block range", drain(t, func(y func([]exec.Edge) bool) error {
			return p.EachEdgeBlockRangeBatchContext(ctx, 0, 1, 0, 1, 0, p.NumEdges(), y)
		}), ref)
	}
}

// TestEachEdgeBlockBatchEquivalence: a block's edges reach a per-edge
// consumer through StreamEdgesParallelContext in the order the batch
// walker yields them.
func TestEachEdgeBlockBatchEquivalence(t *testing.T) {
	for name, p := range testProducts(t) {
		const nshards = 3
		perShard := make([][]ordered, nshards)
		if err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
			return exec.SinkFunc(func(v, w int) error { perShard[s] = append(perShard[s], ordered{v, w}); return nil })
		}); err != nil {
			t.Fatal(err)
		}
		for s, want := range expectedBlocks(p, reference(p), nshards, 1) {
			equalWalks(t, fmt.Sprintf("%s shard %d", name, s), perShard[s], want)
		}
	}
}

// checkBatchSizes requires every batch of a walk but the last to be
// full: batches flush when fewer than 2 slots remain, so any non-final
// batch holds at least BatchLen-1 edges, and the range end never splits
// the stream into extra batches.
func checkBatchSizes(t *testing.T, what string, want int64, walk func(yield func([]exec.Edge) bool) error) {
	t.Helper()
	var sizes []int
	if err := walk(func(batch []exec.Edge) bool { sizes = append(sizes, len(batch)); return true }); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, n := range sizes {
		if i < len(sizes)-1 && n < exec.BatchLen-1 {
			t.Fatalf("%s: non-final batch %d has only %d edges", what, i, n)
		}
		total += int64(n)
	}
	if total != want {
		t.Fatalf("%s: batches total %d edges, want %d", what, total, want)
	}
}

func TestEachEdgeRangeBatch(t *testing.T) {
	p := bigStreamProduct(t)
	for _, r := range [][2]int64{{17, p.NumEdges() - 5}, {3, 3 + exec.BatchLen}} {
		checkBatchSizes(t, fmt.Sprint(r), r[1]-r[0], func(y func([]exec.Edge) bool) error {
			return p.EachEdgeRangeBatchContext(context.Background(), r[0], r[1], y)
		})
	}
}

func TestEachEdgeShardBatchSizes(t *testing.T) {
	p := bigStreamProduct(t)
	checkBatchSizes(t, "whole stream", p.NumEdges(), func(y func([]exec.Edge) bool) error {
		return p.EachEdgeBatchContext(context.Background(), y)
	})
}

// TestTermEdgeStarts: the hard-cut schedule is strictly ascending from
// 0 to NumEdges, each cut seeks to a fresh row (offset 0), and the
// block-local variant ends exactly on BlockEdgeCount.
func TestTermEdgeStarts(t *testing.T) {
	for name, p := range testProducts(t) {
		cuts := p.TermEdgeStarts()
		if cuts[0] != 0 || cuts[len(cuts)-1] != p.NumEdges() {
			t.Fatalf("%s: cuts %v do not span [0,%d]", name, cuts, p.NumEdges())
		}
		for i, cut := range cuts[:len(cuts)-1] {
			if cuts[i+1] <= cut {
				t.Fatalf("%s: cuts not ascending: %v", name, cuts)
			}
			if _, _, off := p.seekBlockEdge(0, p.numRows(), 0, p.mLast, cut); off != 0 {
				t.Fatalf("%s: cut %d seeks mid-row (off %d)", name, cut, off)
			}
		}
		bcuts, err := p.BlockTermEdgeStarts(1, 2, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := p.BlockEdgeCount(1, 2, 1, 3); bcuts[len(bcuts)-1] != want {
			t.Fatalf("%s: block cuts end at %d, BlockEdgeCount says %d", name, bcuts[len(bcuts)-1], want)
		}
	}
}

// TestShardEdgeCount: ShardEdgeCount is the n×1 BlockEdgeCount and the
// shards sum to |E_C|.
func TestShardEdgeCount(t *testing.T) {
	for name, p := range testProducts(t) {
		for _, nshards := range []int{1, 2, 5, 3 * p.numRows()} {
			var total int64
			for s := 0; s < nshards; s++ {
				n, err := p.ShardEdgeCount(s, nshards)
				b, _ := p.BlockEdgeCount(s, nshards, 0, 1)
				if err != nil || n != b {
					t.Fatalf("%s shard %d/%d: %d (%v), block count %d", name, s, nshards, n, err, b)
				}
				total += n
			}
			if total != p.NumEdges() {
				t.Fatalf("%s nshards=%d: total %d, want %d", name, nshards, total, p.NumEdges())
			}
		}
	}
}

func TestShardEdgeCountProperty(t *testing.T) { checkGrids(t, 7, [2]int{-2, 1}, [2]int{5, 1}) }

// TestBlockEdgeCountFoldsToShard: summing a row band's blocks over every
// column reproduces the shard count, and 1×1 is the whole product.
func TestBlockEdgeCountFoldsToShard(t *testing.T) {
	for name, p := range testProducts(t) {
		for _, rows := range []int{1, 2, 5} {
			for _, cols := range []int{1, 2, 4, 1000} {
				for r := 0; r < rows; r++ {
					want, _ := p.ShardEdgeCount(r, rows)
					var sum int64
					for c := 0; c < cols; c++ {
						n, err := p.BlockEdgeCount(r, rows, c, cols)
						if err != nil {
							t.Fatal(err)
						}
						sum += n
					}
					if sum != want {
						t.Fatalf("%s row %d/%d over %d cols: blocks sum to %d, shard count %d", name, r, rows, cols, sum, want)
					}
				}
			}
		}
		if n, err := p.BlockEdgeCount(0, 1, 0, 1); err != nil || n != p.NumEdges() {
			t.Fatalf("%s: 1x1 block count = %d (%v), want |E_C|=%d", name, n, err, p.NumEdges())
		}
	}
}

// TestEmptyShards: with more shards than rows, the trailing shards are
// empty; walks over them yield nothing and the parallel stream still
// delivers every edge to per-edge and batch sinks alike.
func TestEmptyShards(t *testing.T) {
	ctx := context.Background()
	for name, p := range testProducts(t) {
		nshards := p.numRows() + 3
		empty := 0
		for s := 0; s < nshards; s++ {
			n, _ := p.ShardEdgeCount(s, nshards)
			if n == 0 {
				empty++
			}
			if got := drain(t, func(y func([]exec.Edge) bool) error {
				return p.EachEdgeBlockBatchContext(ctx, s, nshards, 0, 1, y)
			}); int64(len(got)) != n {
				t.Fatalf("%s shard %d: %d edges, ShardEdgeCount %d", name, s, len(got), n)
			}
		}
		if empty < 3 {
			t.Fatalf("%s: only %d empty shards of %d", name, empty, nshards)
		}
		var perEdge atomic.Int64
		if err := p.StreamEdgesParallelContext(ctx, nshards, func(int) exec.Sink {
			return exec.SinkFunc(func(_, _ int) error { perEdge.Add(1); return nil })
		}); err != nil || perEdge.Load() != p.NumEdges() {
			t.Fatalf("%s parallel per-edge: %d edges (%v), want %d", name, perEdge.Load(), err, p.NumEdges())
		}
		var batch exec.CountingSink
		if err := p.StreamEdgesParallelContext(ctx, nshards, func(int) exec.Sink { return &batch }); err != nil || batch.Count() != p.NumEdges() {
			t.Fatalf("%s parallel batch: %d edges (%v), want %d", name, batch.Count(), err, p.NumEdges())
		}
	}
}

// --- Contract: validation, early stop, cancellation ---

// TestEachEdgeBlockValidation: bad grid coordinates and ranges are
// rejected by the primitive, every wrapper and the closed forms.
func TestEachEdgeBlockValidation(t *testing.T) {
	p := testProducts(t)["chain"]
	ctx := context.Background()
	nop := func([]exec.Edge) bool { return true }
	for _, c := range [][4]int{{0, 0, 0, 1}, {2, 2, 0, 1}, {-1, 2, 0, 1}, {0, 1, 0, 0}, {0, 1, 1, 1}, {0, 1, -1, 2}} {
		if _, err := p.BlockEdgeCount(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("BlockEdgeCount accepted %v", c)
		}
		if _, err := p.BlockTermEdgeStarts(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("BlockTermEdgeStarts accepted %v", c)
		}
		if err := p.EachEdgeBlockBatchContext(ctx, c[0], c[1], c[2], c[3], nop); err == nil {
			t.Errorf("EachEdgeBlockBatchContext accepted %v", c)
		}
		if err := p.EachEdgeBlockRangeBatchContext(ctx, c[0], c[1], c[2], c[3], 0, 0, nop); err == nil {
			t.Errorf("EachEdgeBlockRangeBatchContext accepted %v", c)
		}
	}
	n, _ := p.BlockEdgeCount(0, 2, 1, 3)
	if err := p.EachEdgeBlockRangeBatchContext(ctx, 0, 2, 1, 3, 0, n+1, nop); err == nil {
		t.Error("block range past BlockEdgeCount accepted")
	}
}

func TestEachEdgeShardValidation(t *testing.T) {
	p := testProducts(t)["mode1"]
	if _, err := p.ShardEdgeCount(-1, 2); err == nil {
		t.Fatal("ShardEdgeCount accepted negative shard")
	}
	if _, err := p.ShardEdgeCount(0, 0); err == nil {
		t.Fatal("ShardEdgeCount accepted nshards=0")
	}
	if err := p.StreamEdgesParallelContext(context.Background(), 0, nil); err == nil {
		t.Fatal("StreamEdgesParallelContext accepted nshards=0")
	}
}

func TestEachEdgeRangeErrors(t *testing.T) {
	for _, p := range testProducts(t) {
		n := p.NumEdges()
		for _, r := range [][2]int64{{-1, 0}, {0, n + 1}, {5, 4}, {n + 1, n + 1}} {
			if err := p.EachEdgeRange(r[0], r[1], func(_, _ int) bool { return true }); err == nil {
				t.Fatalf("range [%d,%d): expected error", r[0], r[1])
			}
			if err := p.EachEdgeRangeBatchContext(context.Background(), r[0], r[1], func([]exec.Edge) bool { return true }); err == nil {
				t.Fatalf("batch range [%d,%d): expected error", r[0], r[1])
			}
		}
	}
}

// TestEachEdgeShardEarlyStop: a per-edge yield returning false ends the
// range walk without error, mid-batch.
func TestEachEdgeShardEarlyStop(t *testing.T) {
	for _, p := range testProducts(t) {
		seen := 0
		if err := p.EachEdgeRange(1, p.NumEdges(), func(_, _ int) bool { seen++; return seen < 3 }); err != nil {
			t.Fatal(err)
		}
		if seen != 3 {
			t.Fatalf("early stop saw %d edges, want 3", seen)
		}
	}
}

// TestEachEdgeBlockEarlyStop: a batch yield returning false is the last
// call, and the walk returns nil.
func TestEachEdgeBlockEarlyStop(t *testing.T) {
	p := bigStreamProduct(t)
	calls := 0
	if err := p.EachEdgeBlockBatchContext(context.Background(), 0, 1, 0, 2, func([]exec.Edge) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after returning false, want 1", calls)
	}
}

func TestEachEdgeShardBatchValidationAndEarlyStop(t *testing.T) {
	p := testProducts(t)["mode1"]
	nop := func([]exec.Edge) bool { return true }
	if err := p.EachEdgeBlockBatchContext(context.Background(), 3, 3, 0, 1, nop); err == nil {
		t.Fatal("accepted shard out of range")
	}
	calls := 0
	if err := p.EachEdgeBatchContext(context.Background(), func([]exec.Edge) bool { calls++; return false }); err != nil || calls != 1 {
		t.Fatalf("stopped whole stream: %d calls, err %v", calls, err)
	}
}

// bigStreamProduct has rows long enough, and enough edges, for a walk
// to span many batches.
func bigStreamProduct(t *testing.T) *Product {
	t.Helper()
	p, err := New(gen.Star(4), gen.CompleteBipartite(40, 40).Graph, ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkCancelAtBatch cancels from inside the first batch's yield and
// checks the batch contract: no batch after the cancellation, no edge
// twice, ctx.Err() back.  A pre-cancelled context yields nothing.
func checkCancelAtBatch(t *testing.T, walk func(ctx context.Context, yield func([]exec.Edge) bool) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	err := walk(ctx, func([]exec.Edge) bool {
		batches++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) || batches != 1 {
		t.Fatalf("cancel in first batch: %d batches, err %v; want 1 and context.Canceled", batches, err)
	}
	err = walk(ctx, func([]exec.Edge) bool {
		t.Fatal("batch yielded under a pre-cancelled context")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err %v, want context.Canceled", err)
	}
}

func TestEachEdgeShardBatchContextCancelAtBoundary(t *testing.T) {
	p := bigStreamProduct(t)
	checkCancelAtBatch(t, p.EachEdgeBatchContext)
}

func TestEachEdgeShardContextCancelMidStream(t *testing.T) {
	p := bigStreamProduct(t)
	checkCancelAtBatch(t, func(ctx context.Context, y func([]exec.Edge) bool) error {
		return p.EachEdgeBlockBatchContext(ctx, 1, 2, 0, 1, y)
	})
}

func TestEachEdgeRangeContextCancel(t *testing.T) {
	p := bigStreamProduct(t)
	checkCancelAtBatch(t, func(ctx context.Context, y func([]exec.Edge) bool) error {
		return p.EachEdgeRangeBatchContext(ctx, 1, p.NumEdges()-1, y)
	})
}

func TestEachEdgeBlockContextCancel(t *testing.T) {
	p := bigStreamProduct(t)
	checkCancelAtBatch(t, func(ctx context.Context, y func([]exec.Edge) bool) error {
		return p.EachEdgeBlockRangeBatchContext(ctx, 0, 2, 0, 2, 5, 5000, y)
	})
}

func TestEachEdgeShardBatchContextPreCancelled(t *testing.T) {
	p := testProducts(t)["mode2"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.EachEdgeBlockBatchContext(ctx, 0, 2, 0, 1, func([]exec.Edge) bool {
		t.Fatal("batch yielded under a pre-cancelled context")
		return true
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEachEdgeShardContextPreCancelled(t *testing.T) {
	p := testProducts(t)["mode1"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.EachEdgeRangeBatchContext(ctx, 0, 0, func([]exec.Edge) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty range under a dead context: err = %v, want context.Canceled", err)
	}
}

// --- StreamEdgesParallelContext ---

// shardRecorder is a per-shard Sink+BatchSink recording every edge.
type shardRecorder struct {
	edges   []ordered
	batches int
}

func (r *shardRecorder) Edge(v, w int) error {
	r.edges = append(r.edges, ordered{v, w})
	return nil
}

func (r *shardRecorder) EdgeBatch(batch []exec.Edge) error {
	r.batches++
	for _, e := range batch {
		r.edges = append(r.edges, ordered{e.V, e.W})
	}
	return nil
}

// checkParallel streams p through nshards recorders and requires each
// shard to be its n×1 block of the reference walk.
func checkParallel(t *testing.T, p *Product, nshards int, wantBatches bool) {
	t.Helper()
	recs := make([]shardRecorder, nshards)
	if err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
		if wantBatches {
			return &recs[s]
		}
		return exec.SinkFunc(recs[s].Edge)
	}); err != nil {
		t.Fatal(err)
	}
	batches := 0
	for s, want := range expectedBlocks(p, reference(p), nshards, 1) {
		equalWalks(t, fmt.Sprintf("%v shard %d/%d", p, s, nshards), recs[s].edges, want)
		batches += recs[s].batches
	}
	if wantBatches && batches == 0 {
		t.Fatalf("%v: no EdgeBatch calls — batch sink fed per edge", p)
	}
}

func TestStreamEdgesParallel(t *testing.T) {
	for _, p := range testProducts(t) {
		checkParallel(t, p, 4, false)
	}
}

// TestStreamEdgesParallelContextBatchPath: batch sinks get whole
// batches, instrumented or not.
func TestStreamEdgesParallelContextBatchPath(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		obs.SetEnabled(instrumented)
		for _, p := range testProducts(t) {
			checkParallel(t, p, 4, true)
		}
	}
	obs.SetEnabled(false)
}

// TestStreamEdgesParallelContextCancel cancels mid-generation from a sink
// and requires the parallel stream to surface ctx.Err().
func TestStreamEdgesParallelContextCancel(t *testing.T) {
	p := bigStreamProduct(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var total atomic.Int64
	err := p.StreamEdgesParallelContext(ctx, 4, func(s int) exec.Sink {
		return exec.SinkFunc(func(v, w int) error {
			if total.Add(1) == 25 {
				cancel()
			}
			return nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if total.Load() >= p.NumEdges() {
		t.Fatal("cancellation did not abort the parallel stream early")
	}
}

// TestStreamEdgesParallelContextDeadline: an already-expired deadline
// aborts before any edge is generated.
func TestStreamEdgesParallelContextDeadline(t *testing.T) {
	p := testProducts(t)["mode2"]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	err := p.StreamEdgesParallelContext(ctx, 3, func(s int) exec.Sink {
		return exec.SinkFunc(func(v, w int) error {
			t.Error("edge generated after deadline")
			return nil
		})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamEdgesParallelContextFlushes verifies shard sinks are flushed
// (exec.Finish) on normal completion.
func TestStreamEdgesParallelContextFlushes(t *testing.T) {
	p := testProducts(t)["mode2"]
	var mu sync.Mutex
	delivered := 0
	if err := p.StreamEdgesParallelContext(context.Background(), 3, func(s int) exec.Sink {
		return exec.NewBufferedSink(exec.SinkFunc(func(v, w int) error {
			mu.Lock()
			delivered++
			mu.Unlock()
			return nil
		}))
	}); err != nil {
		t.Fatal(err)
	}
	if int64(delivered) != p.NumEdges() {
		t.Fatalf("delivered %d edges after flush, want %d", delivered, p.NumEdges())
	}
}

// failingBatchSink errors on the nth batch.
type failingBatchSink struct {
	n    int
	boom error
}

func (f *failingBatchSink) Edge(v, w int) error { return f.EdgeBatch(nil) }

func (f *failingBatchSink) EdgeBatch([]exec.Edge) error {
	f.n--
	if f.n <= 0 {
		return f.boom
	}
	return nil
}

// TestStreamEdgesParallelSinkError: a per-edge sink error aborts the
// stream and surfaces as-is.
func TestStreamEdgesParallelSinkError(t *testing.T) {
	p := testProducts(t)["mode1"]
	boom := fmt.Errorf("sink exploded")
	err := p.StreamEdgesParallelContext(context.Background(), 3, func(s int) exec.Sink {
		n := 0
		return exec.SinkFunc(func(_, _ int) error {
			if n++; s == 1 && n == 5 {
				return boom
			}
			return nil
		})
	})
	if err != boom {
		t.Fatalf("error = %v, want %v", err, boom)
	}
}

// TestStreamEdgesParallelContextBatchSinkError: a batch sink error
// aborts the stream and surfaces as-is, instrumented or not.
func TestStreamEdgesParallelContextBatchSinkError(t *testing.T) {
	boom := fmt.Errorf("batch sink exploded")
	p := bigStreamProduct(t)
	for _, instrumented := range []bool{false, true} {
		obs.SetEnabled(instrumented)
		err := p.StreamEdgesParallelContext(context.Background(), 2, func(s int) exec.Sink {
			return &failingBatchSink{n: 2, boom: boom}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("instrumented=%v: err = %v, want %v", instrumented, err, boom)
		}
	}
	obs.SetEnabled(false)
}

// The shard vocabulary chain_oracle_test.go is written in, as the n×1
// blocks shards now are.

func (p *Product) EachEdgeShardBatch(shard, nshards int, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeBlockBatchContext(context.Background(), shard, nshards, 0, 1, yield)
}

func (p *Product) EachEdgeShard(shard, nshards int, yield func(v, w int) bool) error {
	return p.EachEdgeShardBatch(shard, nshards, func(batch []exec.Edge) bool {
		for _, e := range batch {
			if !yield(e.V, e.W) {
				return false
			}
		}
		return true
	})
}
