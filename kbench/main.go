// Command kbench is kronbip's end-to-end benchmark.  It launches the real
// `kronbip serve` binary, drives one workload against it from this single
// process, checks every output against in-process closed forms and
// reference checksums, and prints every metric with its unit.  The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call into a layer and reports the
// per-layer metrics instead.  See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/obs"
	"kronbip/internal/spec"
)

// chainSpec is the k=3 chain of the repository's BenchmarkStream_Chain_*.
const chainSpec = "factor=sf48x96x240 factor=crown4"

// setupReps is how many times a run launches the server and waits for
// it to answer; setup_s is the median, and the last server is kept.
const setupReps = 9

// workloadDef describes one workload; README.md gives the reason for each.
type workloadDef struct {
	kind   string   // "stream", "lease" or "truth"
	conns  int      // closed-loop connections
	warmup int      // ops run and discarded before the timed phase
	stream string   // spec of the stream and lease ops, probes and replays
	setup  []string // specs that must answer /v1/stats before set-up ends
	truth  []string // specs the truth queries draw from
}

var workloads = map[string]workloadDef{
	"chain-bin": {
		kind: "stream", conns: 1, warmup: 2,
		stream: chainSpec, setup: []string{chainSpec}, truth: []string{chainSpec},
	},
	"lease-merge": {
		kind: "lease", conns: 1, warmup: 1,
		stream: "factor=unicode", setup: []string{"factor=unicode"}, truth: []string{"factor=unicode"},
	},
	"truth-mix": {
		kind: "truth", conns: 2, warmup: 1000,
		stream: "factor=biclique30x30",
		setup:  warmSpecs, truth: warmSpecs,
	},
}

var warmSpecs = []string{
	"factor=unicode",
	"factor=unicode mode=nonbip",
	chainSpec,
	"factor=crown6 factor=crown6 factor=crown6",
	"factor=biclique30x30",
	"factor=sf500x1000x6000",
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"latency_p50_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"}, {"client_cpu_ms_per_op", "ms"}, {"server_rss_p50_mb", "MB"},
}

type metricDef struct{ name, unit string }

// named attaches units to measured values, in the order of defs.
func named(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	bin      string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func main() {
	var cfg config
	var traceN int
	flag.StringVar(&cfg.bin, "bin", ".bench_build/kronbip", "kronbip binary to launch")
	flag.StringVar(&cfg.workload, "workload", "", "workload: chain-bin, lease-merge or truth-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "span dump path (default .bench_build/spans/<workload>-<seed>.json)")
	flag.Parse()
	cfg.trace = traceN != 0
	def, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "kbench: unknown workload %q (want chain-bin, lease-merge or truth-mix) or bad -seconds\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	b := &bench{cfg: cfg, def: def}
	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run's state.
type bench struct {
	cfg   config
	def   workloadDef
	srv   *server
	tr    *tracer      // nil outside the traced phase
	lc    *http.Client // dist-gen client; records lease spans when traced
	curOp atomic.Pointer[open]

	specs      map[string]spec.Spec
	prods      map[string]*core.Product
	streamSpec spec.Spec
	streamRef  digest
	pl         *planner // the workload's truth plan
	probePl    *planner // hot-only plan for probes and replays
	next       atomic.Int64
	poolTasks  float64

	mu        sync.Mutex
	answers   []answer
	attempted int
	failed    int
	errs      []string
}

// note records one op outcome.
func (b *bench) note(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 5 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

// newClient is an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// prepare builds every spec the workload names in process, the stream
// reference digest and the truth plans.  None of this is set-up time.
func (b *bench) prepare() error {
	b.specs, b.prods = map[string]spec.Spec{}, map[string]*core.Product{}
	texts := append(append([]string{b.def.stream}, b.def.setup...), b.def.truth...)
	for _, t := range texts {
		if _, ok := b.prods[t]; ok {
			continue
		}
		sp, err := spec.Parse(t)
		if err != nil {
			return err
		}
		p, err := sp.Build()
		if err != nil {
			return fmt.Errorf("build %s: %w", t, err)
		}
		b.specs[t], b.prods[t] = sp, p
	}
	b.streamSpec = b.specs[b.def.stream]
	b.streamRef = reference(b.prods[b.def.stream])
	mk := func(cold bool) (*planner, error) {
		pl := &planner{seed: uint64(b.cfg.seed), cold: cold, coldSd: 1_000_000_007 + b.cfg.seed<<32}
		for _, t := range b.def.truth {
			pl.specs = append(pl.specs, b.specs[t])
			pl.prods = append(pl.prods, b.prods[t])
		}
		if cold {
			cp, err := spec.Spec{Factors: []string{coldFactor}, Mode: spec.ModeSelfLoop, Seed: spec.DefaultSeed}.Build()
			if err != nil {
				return nil, err
			}
			pl.coldN = cp.N()
		}
		return pl, nil
	}
	var err error
	if b.pl, err = mk(b.def.kind == "truth"); err != nil {
		return err
	}
	b.probePl, err = mk(false)
	return err
}

// setup launches the server setupReps times, each time until every setup
// spec has answered /v1/stats, and keeps the last one running.
func (b *bench) setup(ctx context.Context) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		c := newClient(1)
		start := time.Now()
		srv, err := startServer(b.cfg.bin)
		if err != nil {
			return nil, err
		}
		bodies := make([][]byte, len(b.def.setup))
		for j, t := range b.def.setup {
			bodies[j], err = getOK(ctx, c, srv.base+"/v1/stats?"+specQuery(b.specs[t]).Encode())
			if err != nil {
				break
			}
		}
		secs = append(secs, time.Since(start).Seconds())
		c.CloseIdleConnections()
		for j, t := range b.def.setup {
			if err != nil {
				break
			}
			err = checkAnswer(b.specs[t], b.prods[t], truthQuery{kind: kindStats}, bodies[j])
		}
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupReps-1 {
			srv.stop()
		} else {
			b.srv = srv
		}
	}
	return secs, nil
}

// opFunc returns the workload's op for connection conn.
func (b *bench) opFunc(c *http.Client, conns int) func(ctx context.Context, conn int) (int64, error) {
	switch b.def.kind {
	case "stream":
		brs := make([]*binReader, conns)
		for i := range brs {
			brs[i] = newBinReader()
		}
		return func(ctx context.Context, conn int) (int64, error) {
			return b.streamOp(ctx, c, brs[conn], b.streamSpec, b.streamRef)
		}
	case "lease":
		return func(ctx context.Context, _ int) (int64, error) {
			return b.leaseOp(ctx, b.lc, b.streamSpec, b.streamRef)
		}
	}
	return func(ctx context.Context, _ int) (int64, error) {
		return 0, b.truthOp(ctx, c, b.pl, b.next.Add(1)-1)
	}
}

// truthOp sends request i of plan pl and keeps the answer for checking
// after the phase.
func (b *bench) truthOp(ctx context.Context, c *http.Client, pl *planner, i int64) error {
	q := pl.at(i)
	name := "http.truth"
	if q.spec < 0 {
		name = "http.truth_cold"
	}
	s := b.tr.begin(name, nil)
	body, err := getOK(ctx, c, b.srv.base+pl.url(q))
	s.end(0)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.answers = append(b.answers, answer{pl: pl, q: q, body: body})
	b.mu.Unlock()
	return nil
}

// phaseResult is one timed phase.
type phaseResult struct {
	lat            []float64 // ms per successful op
	ops            int
	edges          int64
	wall           time.Duration
	srvCPU, cliCPU time.Duration
	rss            []float64
	before, after  *serverCounters
	colds          int64 // planned cold requests issued in the phase
}

// phase runs the workload's closed loops for the configured seconds.
// Server CPU, client CPU and RSS are taken between the first and the last
// timed op only.
func (b *bench) phase(ctx context.Context, c *http.Client) (*phaseResult, error) {
	runtime.GC()
	pr := &phaseResult{}
	var err error
	if pr.before, err = scrape(ctx, c, b.srv.base); err != nil {
		return nil, err
	}
	op := b.opFunc(c, b.def.conns)
	firstIdx := b.next.Load()
	pid := b.srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rs := sampleRSS(pid, 50*time.Millisecond)
	cli0 := clientCPU()
	start := time.Now()
	until := start.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for conn := 0; conn < b.def.conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Now().Before(until) {
				t0 := time.Now()
				n, err := op(ctx, conn)
				d := time.Since(t0)
				b.note(err)
				mu.Lock()
				pr.ops++
				if err == nil {
					pr.lat = append(pr.lat, float64(d)/float64(time.Millisecond))
					pr.edges += n
				}
				mu.Unlock()
			}
		}(conn)
	}
	wg.Wait()
	pr.wall = time.Since(start)
	pr.cliCPU = clientCPU() - cli0
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	pr.srvCPU = cpu1 - cpu0
	pr.rss = rs.stop()
	if pr.after, err = scrape(ctx, c, b.srv.base); err != nil {
		return nil, err
	}
	for i := firstIdx; i < b.next.Load(); i++ {
		if b.pl.isCold(i) {
			pr.colds++
		}
	}
	return pr, nil
}

// delta is a server counter's change over the phase.
func (pr *phaseResult) delta(name string) int64 {
	return pr.after.Counters[name] - pr.before.Counters[name]
}

// checkCache requires exactly one product-cache miss per planned cold
// request, and none otherwise.
func (pr *phaseResult) checkCache() error {
	if m := pr.delta("serve.cache.misses"); m != pr.colds {
		return fmt.Errorf("%w: %d product-cache misses in the timed phase, %d cold requests planned", errCheck, m, pr.colds)
	}
	return nil
}

// run executes the whole benchmark run.
func (b *bench) run(ctx context.Context) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	alu, sweep := calibrate()
	// Collect the reference builds' garbage now, so this process's GC does
	// not compete with the server's start or with the timed ops.
	runtime.GC()
	setups, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { b.srv.stop() }()
	dist0 := obs.Default.Snapshot().Counters

	c := newClient(b.def.conns)
	defer c.CloseIdleConnections()
	b.lc = b.leaseClient()
	defer b.lc.CloseIdleConnections()
	warm := b.opFunc(c, 1)
	for i := 0; i < b.def.warmup; i++ {
		_, err := warm(ctx, 0)
		b.note(err)
	}
	warmOps := b.attempted

	plain, err := b.phase(ctx, c)
	if err != nil {
		return nil, err
	}
	checks := []error{plain.checkCache()}
	var traced *phaseResult
	var layers map[string]metric // per-layer figures of a traced run
	if b.cfg.trace {
		b.tr = newTracer()
		traced, err = b.phase(ctx, c)
		if err != nil {
			return nil, err
		}
		checks = append(checks, traced.checkCache())
		b.tr.phase.Store(phaseProbe)
		b.probe(ctx, c)
		b.tr.phase.Store(phaseReplay)
		if err := b.replay(ctx); err != nil {
			return nil, err
		}
		dist1 := obs.Default.Snapshot().Counters
		layers = b.layerMetrics(plain, traced, dist0, dist1, alu, sweep)
		if err := b.tr.dump(b.cfg.spans); err != nil {
			return nil, err
		}
	}
	b.verifyAnswers()
	checks = append(checks, checkLeases(dist0, obs.Default.Snapshot().Counters))

	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: layers}
	if !b.cfg.trace {
		res.Metrics = named(endToEnd, map[string]float64{
			"setup_s":              median(setups),
			"ops_per_s":            float64(plain.ops) / plain.wall.Seconds(),
			"latency_p50_ms":       median(plain.lat),
			"server_cpu_ms_per_op": perOp(plain.srvCPU, plain.ops),
			"client_cpu_ms_per_op": perOp(plain.cliCPU, plain.ops),
			"server_rss_p50_mb":    median(plain.rss),
		})
	}
	var bad []string
	for _, e := range checks {
		if e != nil {
			bad = append(bad, e.Error())
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, "metric "+name+" was not measured")
			res.Metrics[name] = metric{-1, m.Unit}
		}
	}
	res.Correct = b.failed == 0 && len(bad) == 0
	b.report(os.Stdout, setups, warmOps, plain, alu, sweep, bad)
	return res, nil
}

// checkLeases requires that no dist-gen lease was duplicated speculatively
// and that every issued lease completed a block.
func checkLeases(before, after map[string]int64) error {
	issued := after["distgen.leases.issued"] - before["distgen.leases.issued"]
	spec := after["distgen.leases.speculative"] - before["distgen.leases.speculative"]
	done := after["distgen.blocks.done"] - before["distgen.blocks.done"]
	if spec != 0 || issued != done {
		return fmt.Errorf("%w: %d leases issued, %d speculative, %d blocks done", errCheck, issued, spec, done)
	}
	return nil
}

// verifyAnswers checks every kept truth and stats answer against the
// in-process closed forms; cold answers rebuild their product, on all
// CPUs, after the timed phases.
func (b *bench) verifyAnswers() {
	jobs := make(chan answer)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				sp := a.pl.specOf(a.q)
				var p *core.Product
				var err error
				if a.q.spec < 0 {
					p, err = sp.Build()
				} else {
					p = a.pl.prods[a.q.spec]
				}
				if err == nil {
					err = checkAnswer(sp, p, a.q, a.body)
				}
				if err != nil {
					b.mu.Lock()
					b.failed++
					if len(b.errs) < 5 {
						b.errs = append(b.errs, err.Error())
					}
					b.mu.Unlock()
				}
			}
		}()
	}
	for _, a := range b.answers {
		jobs <- a
	}
	close(jobs)
	wg.Wait()
	b.answers = nil
}

func perOp(d time.Duration, ops int) float64 {
	return float64(d) / float64(time.Millisecond) / float64(ops)
}

// report prints the human-readable account of the run: every figure
// with its unit and sample count, the tail percentiles the sample
// supports, and the host calibration.
func (b *bench) report(w io.Writer, setups []float64, warmOps int, pr *phaseResult, alu, sweep float64, bad []string) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	p("kbench workload=%s seed=%d seconds=%g trace=%v", b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace)
	sorted := append([]float64(nil), setups...)
	sort.Float64s(sorted)
	p("  setup_s              %.4f s (median of %d launches: %s)", median(setups), len(setups), fmtList(sorted))
	p("  ops                  %d timed in %.2f s, %d warm-up ops discarded", pr.ops, pr.wall.Seconds(), warmOps)
	p("  ops_per_s            %.3f 1/s", float64(pr.ops)/pr.wall.Seconds())
	if b.def.kind == "truth" {
		p("  req_per_s            %.1f 1/s (%d cold)", float64(pr.ops)/pr.wall.Seconds(), pr.colds)
	} else {
		p("  edges_per_s          %.0f edges/s", float64(pr.edges)/pr.wall.Seconds())
	}
	p("  latency_p50_ms       %.3f ms (n=%d)", median(pr.lat), len(pr.lat))
	for _, q := range []float64{0.9, 0.99} {
		if v, ok := tail(pr.lat, q); ok {
			p("  latency_p%g_ms       %.3f ms (n=%d, %.0f beyond)", q*100, v, len(pr.lat), float64(len(pr.lat))*(1-q))
		} else {
			p("  latency_p%g_ms       omitted: n=%d leaves fewer than %d samples beyond it", q*100, len(pr.lat), minBeyond)
		}
	}
	p("  server_cpu_ms_per_op %.3f ms", perOp(pr.srvCPU, pr.ops))
	p("  client_cpu_ms_per_op %.3f ms", perOp(pr.cliCPU, pr.ops))
	p("  server_rss_p50_mb    %.1f MB (n=%d samples)", median(pr.rss), len(pr.rss))
	p("  failed_ratio         %g (%d of %d ops)", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	p("  host.alu_ms          %.2f ms (%d xorshift steps)", alu, aluIters)
	p("  host.mem_sweep_ms    %.2f ms (%d read passes over %d MiB)", sweep, sweepPasses, sweepWords*8>>20)
	for _, e := range b.errs {
		p("  FAILED op: %s", e)
	}
	for _, e := range bad {
		p("  FAILED check: %s", e)
	}
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
