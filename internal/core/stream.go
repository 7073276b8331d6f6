package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/graph"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
)

// Edge streaming.  Generation is embarrassingly parallel in the
// factor-edge pairs — the property the paper's distributed-GraphBLAS
// future work relies on — and every stream kronbip serves is a
// block-range of the 2D partition in block.go: a full stream is block
// (0, 0) of 1×1, a shard is block (s, 0) of n×1, and a resumed range is
// [lo, hi) of the 1×1 block.  So one loop, EachEdgeBlockRangeBatchContext,
// produces every served edge; the other exported walkers wrap it in a
// few lines.  EachEdge stays apart as the per-edge reference walker the
// tests check the primitive against.
//
// Expansion: a term-0 row expands an A edge through every level
// B_1..B_K with both B-edge orientations; a term-t row (a prefix self
// loop) anchors at level t with the canonical orientation — the prefix
// halves coincide, so orientation choice at the anchor is the only
// symmetry to break — and both orientations below.
//
// Batch contract: edges arrive in pooled slices of at most
// exec.BatchLen, reused between calls (consumers must not retain
// them).  The context is checked before every batch is delivered, so no
// batch is yielded after a cancellation is observed and at most one
// batch is generated past it; the walk then returns ctx.Err().  An edge
// is never delivered twice, cancelled or not.

// Metric names produced by the streaming generator, exported so the CLI
// can wire its progress reporter to them.  Per-shard totals additionally
// appear as obs.Labeled(MetricStreamEdges, "shard", s) counters.
const (
	MetricStreamEdges      = "core.stream.edges"       // product edges delivered to sinks
	MetricStreamShardsDone = "core.stream.shards.done" // shards fully streamed
)

var (
	mStreamEdges = obs.Default.Counter(MetricStreamEdges)
	mShardsDone  = obs.Default.Counter(MetricStreamShardsDone)
	hShardSecs   = obs.Default.Histogram("core.stream.shard_seconds")
)

// Labeled per-shard edge counters, resolved once per process per shard
// index and cached in an atomically-published table, so a completed
// shard reads the table lock-free instead of paying a registry lookup
// and a label-formatting allocation.  The mutex is only taken the first
// time a larger shard count than ever before is requested.
var (
	shardCounterMu  sync.Mutex
	shardCounterTab atomic.Pointer[[]*obs.Counter]
)

// shardEdgeCounters returns the labeled per-shard stream-edge counters
// for shards [0, n), growing the cached table copy-on-write if needed.
func shardEdgeCounters(n int) []*obs.Counter {
	if tab := shardCounterTab.Load(); tab != nil && len(*tab) >= n {
		return (*tab)[:n]
	}
	shardCounterMu.Lock()
	defer shardCounterMu.Unlock()
	var old []*obs.Counter
	if tab := shardCounterTab.Load(); tab != nil {
		old = *tab
	}
	if len(old) >= n {
		return old[:n]
	}
	grown := make([]*obs.Counter, n)
	copy(grown, old)
	for i := len(old); i < n; i++ {
		grown[i] = obs.Default.Counter(obs.Labeled(MetricStreamEdges, "shard", i))
	}
	shardCounterTab.Store(&grown)
	return grown
}

// EachEdge streams every undirected edge {v,w} of C exactly once, in the
// canonical order, without materializing the product.  Each factor-edge
// pair ({i,j}, {k,l}) contributes two product edges (i,k)–(j,l) and
// (i,l)–(j,k) per level; self-loop rows contribute one orientation at
// their anchor level.  Iteration stops early if yield returns false.
//
// This is the reference walker: a plain per-edge recursion sharing no
// loop with EachEdgeBlockRangeBatchContext, which every served stream
// uses.  Tests and benchmark checksums compare the primitive against it.
func (p *Product) EachEdge(yield func(v, w int) bool) {
	p.cacheEdges()
	for t := 0; t < len(p.termOff)-1; t++ {
		for idx := 0; idx < p.termOff[t+1]-p.termOff[t]; idx++ {
			u, pv, pw := t, idx, idx
			if t == 0 {
				u, pv, pw = 1, p.a.edges[idx].U, p.a.edges[idx].V
			}
			if !p.eachEdgeBelow(u, pv, pw, t == 0, yield) {
				return
			}
		}
	}
}

// cacheEdges fills every factor's edge list before a walk reads them.
func (p *Product) cacheEdges() {
	p.a.cacheEdges()
	for _, f := range p.bs {
		f.cacheEdges()
	}
}

// eachEdgeBelow expands levels u..K onto the prefix pair (pv, pw),
// yielding a product edge per complete digit tuple.  both selects
// whether level u ranges over both edge orientations.  Returns false
// once yield stops the stream.
func (p *Product) eachEdgeBelow(u, pv, pw int, both bool, yield func(v, w int) bool) bool {
	f := p.bs[u-1]
	av, aw := pv*f.N(), pw*f.N()
	if u == len(p.bs) && both {
		for _, be := range f.edges {
			if !yield(av+be.U, aw+be.V) || !yield(av+be.V, aw+be.U) {
				return false
			}
		}
		return true
	}
	if u == len(p.bs) {
		for _, be := range f.edges {
			if !yield(av+be.U, aw+be.V) {
				return false
			}
		}
		return true
	}
	for _, be := range f.edges {
		if !p.eachEdgeBelow(u+1, av+be.U, aw+be.V, true, yield) ||
			both && !p.eachEdgeBelow(u+1, av+be.V, aw+be.U, true, yield) {
			return false
		}
	}
	return true
}

// EachEdgeBlockRangeBatchContext streams edges [lo, hi) of block
// (row, col) of an nrows×ncols blocking — block-local offsets in the
// block's canonical-restricted order, whose total is BlockEdgeCount —
// under the package's batch contract.  It is the only production edge
// loop: an O(K) closed-form seek to lo, then the walk of [lo, hi) with
// no prefix work and no spooling.  The batch buffer's capacity is kept
// at most one past the edges still due, so the walk stops within an
// edge of hi without a per-edge limit check.
func (p *Product) EachEdgeBlockRangeBatchContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64, yield func(batch []exec.Edge) bool) error {
	rlo, rhi, clo, chi, err := p.blockRanges(row, nrows, col, ncols)
	if err != nil {
		return err
	}
	if err := checkRange(lo, hi, p.blockEdges(rlo, rhi, clo, chi)); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if lo == hi {
		return nil
	}
	p.cacheEdges()
	bufp := exec.GetEdgeBuf()
	defer exec.PutEdgeBuf(bufp)
	t, r, off := p.seekBlockEdge(rlo, rhi, clo, chi, lo)
	w := walker{
		p:         p,
		last:      p.bs[len(p.bs)-1].edges[clo:chi],
		digits:    p.rowDigits(t, off, chi-clo),
		seek:      true,
		buf:       (*bufp)[:0:min(int64(cap(*bufp)), hi-lo+1)],
		remaining: hi - lo,
		done:      ctx.Done(),
		yield:     yield,
	}
	for ; t < len(p.termOff)-1; t++ {
		for end := min(rhi, p.termOff[t+1]); r < end; r++ {
			idx := r - p.termOff[t]
			if t == 0 && !w.walk(1, p.a.edges[idx].U, p.a.edges[idx].V, true) ||
				t > 0 && !w.walk(t, idx, idx, false) {
				return w.err(ctx)
			}
		}
	}
	if len(w.buf) > 0 {
		w.flush(w.buf)
	}
	return w.err(ctx)
}

// walker is the state of one block-range walk.
type walker struct {
	p         *Product
	last      []graph.Edge // E_{B_K} restricted to the block's column stripe
	digits    []rangeDigit // seek coordinates, consumed by the first descent
	seek      bool         // the first descent has not reached the base level
	buf       []exec.Edge
	remaining int64 // edges still to deliver; flush cuts the batch there
	done      <-chan struct{}
	yield     func(batch []exec.Edge) bool
	cancelled bool
}

// walk expands levels u..K onto the prefix pair (pv, pw), appending each
// complete edge to the batch buffer and flushing full batches; both
// selects whether level u ranges over both edge orientations.  While
// seeking, each level starts at its digit instead of its first edge.
// Returns false once the walk must stop.
func (w *walker) walk(u, pv, pw int, both bool) bool {
	f := w.p.bs[u-1]
	av, aw := pv*f.N(), pw*f.N()
	var i, o int
	if w.seek {
		i, o = w.digits[u].e, w.digits[u].o
	}
	if u < len(w.p.bs) {
		for ; i < len(f.edges); i++ {
			be := f.edges[i]
			if o == 0 && !w.walk(u+1, av+be.U, aw+be.V, true) {
				return false
			}
			o = 0
			if both && !w.walk(u+1, av+be.V, aw+be.U, true) {
				return false
			}
		}
		return true
	}
	w.seek = false
	eb, buf := w.last[i:], w.buf
	if o == 1 { // resume on the flipped orientation of the first edge
		buf = append(buf, exec.Edge{V: av + eb[0].V, W: aw + eb[0].U})
		eb = eb[1:]
		if cap(buf)-len(buf) < 2 {
			if !w.flush(buf) {
				return false
			}
			buf = w.buf
		}
	}
	if both {
		for _, be := range eb {
			buf = append(buf, exec.Edge{V: av + be.U, W: aw + be.V}, exec.Edge{V: av + be.V, W: aw + be.U})
			if cap(buf)-len(buf) < 2 {
				if !w.flush(buf) {
					return false
				}
				buf = w.buf
			}
		}
	} else {
		for _, be := range eb {
			buf = append(buf, exec.Edge{V: av + be.U, W: aw + be.V})
			if cap(buf)-len(buf) < 2 {
				if !w.flush(buf) {
					return false
				}
				buf = w.buf
			}
		}
	}
	w.buf = buf
	return true
}

// flush delivers buf cut at the range end, checking the context first,
// and leaves an empty buffer in w.buf whose capacity keeps the next
// batch from running more than one edge past the end.  Returns false
// once the walk must stop: range complete, yield stopped, or cancelled.
func (w *walker) flush(buf []exec.Edge) bool {
	if int64(len(buf)) > w.remaining {
		buf = buf[:w.remaining]
	}
	w.remaining -= int64(len(buf))
	if w.done != nil {
		select {
		case <-w.done:
			w.cancelled = true
			return false
		default:
		}
	}
	if !w.yield(buf) || w.remaining == 0 {
		return false
	}
	w.buf = buf[:0:min(int64(cap(buf)), w.remaining+1)]
	return true
}

// err maps the walk's end state to the contract's return: ctx.Err() on
// cancellation, nil for a completed or yield-stopped stream.
func (w *walker) err(ctx context.Context) error {
	if w.cancelled {
		return ctx.Err()
	}
	return nil
}

// EachEdgeBlockBatchContext streams the whole of block (row, col) of an
// nrows×ncols blocking under the batch contract.
func (p *Product) EachEdgeBlockBatchContext(ctx context.Context, row, nrows, col, ncols int, yield func(batch []exec.Edge) bool) error {
	n, err := p.BlockEdgeCount(row, nrows, col, ncols)
	if err != nil {
		return err
	}
	return p.EachEdgeBlockRangeBatchContext(ctx, row, nrows, col, ncols, 0, n, yield)
}

// EachEdgeRangeBatchContext streams edges [lo, hi) of the canonical
// EachEdge order under the batch contract.
func (p *Product) EachEdgeRangeBatchContext(ctx context.Context, lo, hi int64, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeBlockRangeBatchContext(ctx, 0, 1, 0, 1, lo, hi, yield)
}

// EachEdgeBatchContext streams the whole edge set in the EachEdge order
// under the batch contract.
func (p *Product) EachEdgeBatchContext(ctx context.Context, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeRangeBatchContext(ctx, 0, p.NumEdges(), yield)
}

// EachEdgeRange streams edges [lo, hi) of the canonical EachEdge order
// one edge at a time.  Iteration stops early if yield returns false.
func (p *Product) EachEdgeRange(lo, hi int64, yield func(v, w int) bool) error {
	return p.EachEdgeRangeBatchContext(context.Background(), lo, hi, func(batch []exec.Edge) bool {
		for _, e := range batch {
			if !yield(e.V, e.W) {
				return false
			}
		}
		return true
	})
}

// StreamEdgesParallelContext streams all nshards shards on the exec
// engine's bounded worker pool.  Each shard's edges go to the sink
// returned by sinkFor(shard) — wholesale when it implements
// exec.BatchSink, through exec.DeliverBatch otherwise; a sink is used
// from one goroutine at a time and is flushed (exec.Finish) when its
// shard completes.  The first sink or generation error cancels the
// remaining shards and is returned; if ctx is cancelled mid-generation
// the stream aborts promptly with ctx.Err() and already-written sink
// output is partial work for the caller to discard.
func (p *Product) StreamEdgesParallelContext(ctx context.Context, nshards int, sinkFor func(shard int) exec.Sink) error {
	if nshards <= 0 {
		return fmt.Errorf("core: nshards must be positive, got %d", nshards)
	}
	// One Enabled read decides the whole stream: disabled runs pay no
	// per-batch obs work.  The labeled per-shard counters are resolved
	// here, once per stream, from a process-wide cache.
	instr := obs.Enabled()
	var counters []*obs.Counter
	if instr {
		var spanDone func()
		ctx, spanDone = obs.Span(ctx, "core.stream")
		defer spanDone()
		counters = shardEdgeCounters(nshards)
	}
	return exec.Sharded(ctx, nshards, func(ctx context.Context, s int) error {
		sink := sinkFor(s)
		var start time.Time
		var end timeline.Done
		if instr {
			start = time.Now()
			if timeline.Enabled() {
				end = timeline.Begin(timeline.CatShard, "core.stream", s)
			}
		}
		var total int64
		var sinkErr error
		err := p.EachEdgeBlockBatchContext(ctx, s, nshards, 0, 1, func(batch []exec.Edge) bool {
			if sinkErr = exec.DeliverBatch(sink, batch); sinkErr != nil {
				return false
			}
			if instr {
				mStreamEdges.Add(int64(len(batch)))
				total += int64(len(batch))
			}
			return true
		})
		if err == nil {
			err = sinkErr
		}
		if instr {
			// Partial counts from aborted shards still land, so the
			// progress reporter and final snapshot agree with the sinks.
			counters[s].Add(total)
			hShardSecs.Observe(time.Since(start).Seconds())
			if err == nil {
				mShardsDone.Inc()
			}
			if end != nil {
				end(err)
			}
		}
		if err != nil {
			return err
		}
		return exec.Finish(sink)
	})
}
