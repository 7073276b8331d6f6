package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kronbip/internal/serve"
)

// Span phases: the traced timed phase, the probes that follow it, and
// the in-process layer replays.
const (
	phaseTimed  = "timed"
	phaseProbe  = "probe"
	phaseReplay = "replay"
)

// span is one recorded interval.  Spans of one op share Op (the id of the
// op's root span); Parent is the enclosing span, 0 for a root.
type span struct {
	Name   string
	ID     int64
	Parent int64
	Op     int64
	Phase  string
	Start  time.Time
	End    time.Time
	N      int64         // work count: edges for streams, calls for batched replays
	Aux    int64         // allocations (walk replays) or bytes (handler replays)
	CPU    time.Duration // this process's CPU time over a replay span
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run writes them out.  A nil
// *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
	phase atomic.Value // string
	t0    time.Time
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.phase.Store(phaseTimed)
	return t
}

// open is a span being recorded.
type open struct {
	t *tracer
	s span
}

// begin opens a span under parent (nil for an op root).
func (t *tracer) begin(name string, parent *open) *open {
	if t == nil {
		return nil
	}
	o := &open{t: t, s: span{Name: name, ID: t.ids.Add(1), Phase: t.phase.Load().(string), Start: time.Now()}}
	o.s.Op = o.s.ID
	if parent != nil {
		o.s.Parent, o.s.Op = parent.s.ID, parent.s.Op
	}
	return o
}

// end closes the span with its work count.
func (o *open) end(n int64) {
	if o == nil {
		return
	}
	o.s.End, o.s.N = time.Now(), n
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// record appends a finished replay span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	s.ID, s.Phase = t.ids.Add(1), phaseReplay
	s.Op = s.ID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the spans called name, preferring the timed phase: a
// layer the workload's own traffic does not reach is read from the probes.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byPhase := map[string][]span{}
	for _, s := range t.spans {
		if s.Name == name {
			byPhase[s.Phase] = append(byPhase[s.Phase], s)
		}
	}
	for _, ph := range []string{phaseTimed, phaseProbe, phaseReplay} {
		if len(byPhase[ph]) > 0 {
			return byPhase[ph]
		}
	}
	return nil
}

// selfOf is a span's self time: its duration minus its children's.
func (t *tracer) selfOf(s span) time.Duration {
	t.mu.Lock()
	var kids []interval
	for _, c := range t.spans {
		if c.Parent == s.ID {
			kids = append(kids, interval{c.Start, c.End})
		}
	}
	t.mu.Unlock()
	return selfTime(interval{s.Start, s.End}, kids)
}

// dump writes the spans as a Chrome trace_event file (chrome://tracing,
// Perfetto): one row per op, times in microseconds from the run start.
func (t *tracer) dump(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Phase, Ph: "X",
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "n": s.N, "aux": s.Aux, "cpu_us": s.CPU.Microseconds()},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// leaseTransport records a span per dist-gen lease, from the request to
// the end of its body, under the run's current dist-gen op; a sibling
// http.ttfb span ends at the response headers.  It is the transport of
// the client passed to distgen.Run as Options.Client.
type leaseTransport struct {
	base http.RoundTripper
	b    *bench
}

func (lt *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t, op := lt.b.tr, lt.b.curOp.Load()
	s := t.begin("http.lease", op)
	f := t.begin("http.ttfb", op)
	resp, err := lt.base.RoundTrip(req)
	f.end(0)
	if err != nil || s == nil {
		s.end(0)
		return resp, err
	}
	n, _ := strconv.ParseInt(resp.Header.Get(serve.HeaderBlockEdges), 10, 64)
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s, n: n}
	return resp, nil
}

// spanBody ends its span at EOF (or Close, if the reader stops early).
type spanBody struct {
	io.ReadCloser
	s    *open
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(func() { b.s.end(b.n) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.s.end(b.n) })
	return b.ReadCloser.Close()
}
