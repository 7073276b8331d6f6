package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kronbip/internal/audit"
	kexec "kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// The traced run's per-layer figures.  Live spans come from the traced
// timed phase; a layer the workload's traffic does not reach is read from
// the probes that follow it (one stream op, one dist-gen run and a few
// truth requests on the workload's own specs).  The rest comes from
// in-process replays of each layer's public functions on the same inputs.

const (
	replayReps   = 3
	parseIters   = 1000
	truthReplays = 2000
	handlerCalls = 500
	probeTruths  = 64
)

// perLayer lists the per-layer metrics in report order with their units.
var perLayer = []metricDef{
	{"spec.parse_us", "us"}, {"spec.build_ms", "ms"},
	{"core.walk_ns_per_edge", "ns"}, {"core.walk_allocs_per_edge", "count"}, {"core.truth_us", "us"},
	{"exec.job_run_ms", "ms"}, {"exec.pool_tasks", "count"},
	{"serve.submit_ms", "ms"}, {"serve.job_wait_ms", "ms"}, {"serve.ttfb_ms", "ms"},
	{"serve.handler_ns_per_edge", "ns"}, {"serve.encode_ns_per_edge", "ns"},
	{"serve.wire_bytes_per_edge", "B"}, {"serve.socket_ns_per_edge", "ns"},
	{"serve.lease_ms", "ms"}, {"serve.truth_handler_us", "us"}, {"serve.http_rtt_us", "us"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.cache_misses", "count"}, {"serve.gc_cycles_per_op", "count"},
	{"client.decode_ns_per_edge", "ns"}, {"audit.ns_per_edge", "ns"},
	{"distgen.merge_ms", "ms"}, {"distgen.leases_issued", "count"},
	{"distgen.leases_speculative", "count"}, {"distgen.lease_useful_ratio", "ratio"},
	{"host.alu_ms", "ms"}, {"host.mem_sweep_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
}

// leaseClient is a one-connection client whose transport records a span
// per lease under the current dist-gen op.
func (b *bench) leaseClient() *http.Client {
	return &http.Client{Transport: &leaseTransport{base: newClient(1).Transport, b: b}}
}

// probe runs one op of each kind on the workload's own specs, so every
// live layer span exists on every workload.
func (b *bench) probe(ctx context.Context, c *http.Client) {
	_, err := b.streamOp(ctx, c, newBinReader(), b.streamSpec, b.streamRef)
	b.note(err)
	_, err = b.leaseOp(ctx, b.lc, b.streamSpec, b.streamRef)
	b.note(err)
	for i := int64(0); i < probeTruths; i++ {
		b.note(b.truthOp(ctx, c, b.probePl, i))
	}
}

// sinkWriter is a discarding (or capturing), flushing ResponseWriter for
// in-process handler replays.
type sinkWriter struct {
	h    http.Header
	code int
	n    int64
	buf  *bytes.Buffer
}

func newSinkWriter(capture bool) *sinkWriter {
	w := &sinkWriter{h: http.Header{}}
	if capture {
		w.buf = &bytes.Buffer{}
	}
	return w
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *sinkWriter) Flush() {}
func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += int64(len(p))
	if w.buf != nil {
		w.buf.Write(p)
	}
	return len(p), nil
}

// replayer drives an in-process serve.Server through its Handler.
type replayer struct {
	h   http.Handler
	ctx context.Context
}

func (r *replayer) do(method, target, body string, w http.ResponseWriter) {
	req := httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(r.ctx)
	r.h.ServeHTTP(w, req)
}

// doneJob submits sp and waits until the job is done, returning its id.
func (r *replayer) doneJob(sp spec.Spec) (string, error) {
	rec := httptest.NewRecorder()
	r.do(http.MethodPost, "/v1/jobs", submitBody(sp), rec)
	var js jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil || rec.Code != http.StatusAccepted {
		return "", fmt.Errorf("replay submit: status %d: %s", rec.Code, rec.Body.String())
	}
	for js.State != "done" {
		if js.State == "failed" || js.State == "cancelled" {
			return "", fmt.Errorf("replay job %s %s", js.ID, js.State)
		}
		time.Sleep(time.Millisecond)
		rec = httptest.NewRecorder()
		r.do(http.MethodGet, "/v1/jobs/"+js.ID, "", rec)
		if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
			return "", err
		}
	}
	return js.ID, nil
}

// stream replays the workload's served stream: the bin edge stream of a
// done job, or (lease-merge) every tsv lease of the grid.  It returns the
// edges and bytes written.
func (b *bench) stream(r *replayer, jobID string, capture *bytes.Buffer) (edges, wire int64, err error) {
	check := func(w *sinkWriter, want int64) error {
		got, _ := strconv.ParseInt(w.h.Get(serve.TrailerEdges), 10, 64)
		if w.code != http.StatusOK || w.h.Get(serve.TrailerStatus) != "complete" || got != want {
			return fmt.Errorf("%w: replayed stream status %d trailer %q edges %d, want %d",
				errCheck, w.code, w.h.Get(serve.TrailerStatus), got, want)
		}
		return nil
	}
	if jobID != "" {
		w := newSinkWriter(false)
		w.buf = capture
		r.do(http.MethodGet, "/v1/jobs/"+jobID+"/edges?format=bin", "", w)
		return b.streamRef.n, w.n, check(w, b.streamRef.n)
	}
	p := b.prods[b.def.stream]
	sp := b.streamSpec
	for row := 0; row < leaseRows; row++ {
		for col := 0; col < leaseCols; col++ {
			want, err := p.BlockEdgeCount(row, leaseRows, col, leaseCols)
			if err != nil {
				return 0, 0, err
			}
			body := strings.TrimSuffix(submitBody(sp), "}") +
				fmt.Sprintf(`,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":"tsv"}`, row, leaseRows, col, leaseCols)
			w := newSinkWriter(false)
			r.do(http.MethodPost, "/v1/leases", body, w)
			if err := check(w, want); err != nil {
				return 0, 0, err
			}
			edges += want
			wire += w.n
		}
	}
	return edges, wire, nil
}

// timed records one replay span around f, with this process's CPU time.
func (b *bench) timed(name string, n int64, f func() (aux int64, err error)) error {
	cpu0, start := clientCPU(), time.Now()
	aux, err := f()
	end := time.Now()
	b.tr.record(span{Name: name, Start: start, End: end, N: n, Aux: aux, CPU: clientCPU() - cpu0})
	return err
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// replay times each layer's public functions in process on the
// workload's inputs.  Instrumentation is on, as it is in the server.
func (b *bench) replay(ctx context.Context) error {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	p := b.prods[b.def.stream]
	E := p.NumEdges()

	// spec: parse every spec text of the workload; build cold products.
	texts := append([]string{b.def.stream}, b.def.setup...)
	for i := 0; i < replayReps; i++ {
		err := b.timed("replay.spec.parse", int64(parseIters*len(texts)), func() (int64, error) {
			for j := 0; j < parseIters; j++ {
				for _, t := range texts {
					if _, err := spec.Parse(t); err != nil {
						return 0, err
					}
				}
			}
			return 0, nil
		})
		if err != nil {
			return err
		}
		sp := b.streamSpec
		if b.def.kind == "truth" {
			sp = spec.Spec{Factors: []string{coldFactor}, Mode: spec.ModeSelfLoop, Seed: 3_000_000_019 + int64(i)}
		}
		if err := b.timed("replay.spec.build", 1, func() (int64, error) { _, err := sp.Build(); return 0, err }); err != nil {
			return err
		}
	}

	// core: the walker entry the workload's server path uses, then the
	// closed forms the truth endpoints call.
	count := func(n *int64) func([]kexec.Edge) bool {
		return func(batch []kexec.Edge) bool { *n += int64(len(batch)); return true }
	}
	for i := 0; i < replayReps; i++ {
		var n int64
		err := b.timed("replay.core.walk", E, func() (int64, error) {
			a0 := mallocs()
			var err error
			if b.def.kind == "lease" {
				for row := 0; row < leaseRows && err == nil; row++ {
					for col := 0; col < leaseCols && err == nil; col++ {
						err = p.EachEdgeBlockBatchContext(ctx, row, leaseRows, col, leaseCols, count(&n))
					}
				}
			} else {
				err = p.EachEdgeRangeBatchContext(ctx, 0, E, count(&n))
			}
			return mallocs() - a0, err
		})
		if err == nil && n != E {
			err = fmt.Errorf("%w: replayed walk yielded %d edges, closed form %d", errCheck, n, E)
		}
		if err != nil {
			return err
		}
	}
	queries := make([]truthQuery, truthReplays)
	for i := range queries {
		queries[i] = b.probePl.at(int64(i))
	}
	err := b.timed("replay.core.truth", truthReplays, func() (int64, error) {
		for _, q := range queries {
			sp := b.probePl.specOf(q)
			if q.kind == kindStats {
				_ = wantStats(sp, b.probePl.prods[q.spec])
			} else if _, err := wantTruth(sp, b.probePl.prods[q.spec], q); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}

	// exec: the sharded job run into a counting sink.
	var m kexec.Meter
	for i := 0; i < replayReps; i++ {
		var cs kexec.CountingSink
		mctx := kexec.WithMeter(ctx, &m)
		err := b.timed("replay.exec.job_run", E, func() (int64, error) {
			return 0, p.StreamEdgesParallelContext(mctx, runtime.GOMAXPROCS(0), func(int) kexec.Sink { return &cs })
		})
		if err == nil && cs.Count() != E {
			err = fmt.Errorf("%w: job run counted %d edges, closed form %d", errCheck, cs.Count(), E)
		}
		if err != nil {
			return err
		}
	}
	b.poolTasks = float64(m.Tasks()) / replayReps

	// serve: the stream handler, the truth handler, then the client's
	// decode of the captured bin stream.
	srv := serve.New(serve.Config{})
	defer func() { _ = srv.Shutdown(5 * time.Second) }()
	r := &replayer{h: srv.Handler(), ctx: ctx}
	jobID, err := r.doneJob(b.streamSpec)
	if err != nil {
		return err
	}
	streamJob := jobID
	if b.def.kind == "lease" {
		streamJob = ""
		if _, _, err := b.stream(r, "", nil); err != nil { // warm the lease path
			return err
		}
	}
	for i := 0; i < replayReps; i++ {
		err := b.timed("replay.serve.handler", E, func() (int64, error) {
			_, wire, err := b.stream(r, streamJob, nil)
			return wire, err
		})
		if err != nil {
			return err
		}
	}
	for _, t := range b.def.truth {
		r.do(http.MethodGet, "/v1/stats?"+specQuery(b.specs[t]).Encode(), "", newSinkWriter(false))
	}
	for i := 0; i < handlerCalls; i++ {
		q := queries[i]
		w := newSinkWriter(true)
		start := time.Now()
		r.do(http.MethodGet, b.probePl.url(q), "", w)
		b.tr.record(span{Name: "replay.serve.truth_handler", Start: start, End: time.Now(), N: 1})
		sp := b.probePl.specOf(q)
		if err := checkAnswer(sp, b.probePl.prods[q.spec], q, w.buf.Bytes()); err != nil {
			return err
		}
	}
	var bin bytes.Buffer
	if _, _, err := b.stream(r, jobID, &bin); err != nil {
		return err
	}
	for i := 0; i < replayReps; i++ {
		var d digest
		err := b.timed("replay.client.decode", E, func() (int64, error) {
			_, _, _, err := serve.DecodeWire(bin.Bytes(), 0, d.add)
			return 0, err
		})
		if err == nil {
			err = checkStream(streamFacts{got: d, headerTotal: E, trailerEdges: E, status: "complete"}, b.streamRef)
		}
		if err != nil {
			return err
		}
	}

	// audit: the online auditor over the whole stream, finalized.
	for i := 0; i < 2; i++ {
		err := b.timed("replay.audit", E, func() (int64, error) {
			a := audit.New(p, audit.Options{})
			sh := a.Stream().ForShard()
			var serr error
			err := p.EachEdgeBatchContext(ctx, func(batch []kexec.Edge) bool {
				serr = kexec.DeliverBatch(sh, batch)
				return serr == nil
			})
			if err == nil {
				err = serr
			}
			if err == nil {
				err = kexec.Finish(sh)
			}
			if err != nil {
				return 0, err
			}
			rep := a.Finalize()
			return 0, checkAudit(rep.Checks, len(rep.Violations))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics assembles the per-layer figures of a traced run.
func (b *bench) layerMetrics(plain, traced *phaseResult, dist0, dist1 map[string]int64, alu, sweep float64) map[string]metric {
	t := b.tr
	perN := func(name string, scale float64) float64 { // median of dur/N
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(s.dur())/float64(s.N)/scale)
		}
		return median(xs)
	}
	cpuPerN := func(name string) float64 {
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(s.CPU)/float64(s.N))
		}
		return median(xs)
	}
	auxPerN := func(name string) float64 {
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(s.Aux)/float64(s.N))
		}
		return median(xs)
	}
	dur := func(name string, scale float64) float64 {
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(s.dur())/scale)
		}
		return median(xs)
	}
	// Socket: the time the client spent waiting on the live stream, that
	// is the stream span's self time (its client.decode children removed),
	// per edge.
	streamSpan := "http.edges"
	if b.def.kind == "lease" {
		streamSpan = "http.lease"
	}
	var sock, merge []float64
	for _, s := range t.named(streamSpan) {
		sock = append(sock, float64(t.selfOf(s))/float64(s.N))
	}
	leaseOps := t.named("op.lease")
	for _, s := range leaseOps {
		merge = append(merge, float64(t.selfOf(s))/1e6)
	}
	d := func(k string) float64 { return float64(dist1[k] - dist0[k]) }
	// dist0 predates the warm-up and the untraced phase; take the lease
	// counts of the traced phase and probes from the spans instead.
	runs := float64(len(leaseOps))
	issued := float64(len(t.named("http.lease")))
	hits, misses := traced.delta("serve.cache.hits"), traced.delta("serve.cache.misses")
	v := map[string]float64{
		"spec.parse_us":              perN("replay.spec.parse", 1e3),
		"spec.build_ms":              dur("replay.spec.build", 1e6),
		"core.walk_ns_per_edge":      perN("replay.core.walk", 1),
		"core.walk_allocs_per_edge":  auxPerN("replay.core.walk"),
		"core.truth_us":              perN("replay.core.truth", 1e3),
		"exec.job_run_ms":            dur("replay.exec.job_run", 1e6),
		"exec.pool_tasks":            b.poolTasks,
		"serve.submit_ms":            dur("http.submit", 1e6),
		"serve.job_wait_ms":          dur("job.wait", 1e6),
		"serve.ttfb_ms":              dur("http.ttfb", 1e6),
		"serve.handler_ns_per_edge":  perN("replay.serve.handler", 1),
		"serve.encode_ns_per_edge":   cpuPerN("replay.serve.handler") - cpuPerN("replay.core.walk"),
		"serve.wire_bytes_per_edge":  auxPerN("replay.serve.handler"),
		"serve.socket_ns_per_edge":   median(sock),
		"serve.lease_ms":             dur("http.lease", 1e6),
		"serve.truth_handler_us":     dur("replay.serve.truth_handler", 1e3),
		"serve.http_rtt_us":          dur("http.truth", 1e3),
		"serve.cache_hit_ratio":      float64(hits) / float64(hits+misses),
		"serve.cache_misses":         float64(misses),
		"serve.gc_cycles_per_op":     float64(traced.after.Gauges["runtime.gc_cycles"]-traced.before.Gauges["runtime.gc_cycles"]) / float64(traced.ops),
		"client.decode_ns_per_edge":  perN("replay.client.decode", 1),
		"audit.ns_per_edge":          perN("replay.audit", 1),
		"distgen.merge_ms":           median(merge),
		"distgen.leases_issued":      issued / runs,
		"distgen.leases_speculative": d("distgen.leases.speculative"),
		"distgen.lease_useful_ratio": d("distgen.blocks.done") / d("distgen.leases.issued"),
		"host.alu_ms":                alu,
		"host.mem_sweep_ms":          sweep,
		"trace.overhead_ratio":       median(traced.lat) / median(plain.lat),
	}
	return named(perLayer, v)
}
