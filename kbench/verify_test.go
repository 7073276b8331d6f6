package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kronbip/internal/audit"
	"kronbip/internal/core"
	kexec "kronbip/internal/exec"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// testSpec is a k=3 chain of about 10k edges: several wire frames.
const testSpec = "factor=crown4 factor=crown4"

func buildTest(t *testing.T) (spec.Spec, *core.Product) {
	t.Helper()
	sp, err := spec.Parse(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp, p
}

// inProcess returns a replayer over a fresh in-process server.
func inProcess(t *testing.T) *replayer {
	t.Helper()
	srv := serve.New(serve.Config{})
	t.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
	return &replayer{h: srv.Handler(), ctx: context.Background()}
}

// binRange fetches [lo, hi) of a done job's bin stream.
func binRange(t *testing.T, r *replayer, id string, lo, hi int64) []byte {
	t.Helper()
	w := newSinkWriter(true)
	r.do("GET", fmt.Sprintf("/v1/jobs/%s/edges?format=bin&offset=%d&limit=%d", id, lo, hi-lo), "", w)
	if w.code != 200 {
		t.Fatalf("range [%d,%d): status %d", lo, hi, w.code)
	}
	return w.buf.Bytes()
}

func TestStreamChecks(t *testing.T) {
	sp, p := buildTest(t)
	want := reference(p)
	r := inProcess(t)
	id, err := r.doneJob(sp)
	if err != nil {
		t.Fatal(err)
	}
	full := binRange(t, r, id, 0, want.n)
	facts := func(payload []byte) (streamFacts, error) {
		f := streamFacts{headerTotal: want.n, trailerEdges: want.n, status: "complete"}
		_, err := newBinReader().read(bytes.NewReader(payload), 0, f.got.add)
		return f, err
	}

	f, err := facts(full)
	if err != nil || checkStream(f, want) != nil {
		t.Fatalf("clean stream: decode %v, check %v", err, checkStream(f, want))
	}

	// A reordered frame breaks the stream's framing.
	a, c := binRange(t, r, id, 0, 4096), binRange(t, r, id, 4096, 8192)
	if _, err := facts(append(append([]byte{}, c...), a...)); err == nil {
		t.Error("reordered frames decoded without error")
	}
	// So does an edge dropped from the middle of the stream.
	k := int64(5000)
	dropped := append(binRange(t, r, id, 0, k), binRange(t, r, id, k+1, want.n)...)
	if _, err := facts(dropped); err == nil {
		t.Error("stream with a dropped edge decoded without error")
	}
	// A stream truncated mid-frame leaves bytes over at EOF.
	if _, err := facts(full[:len(full)-3]); err == nil {
		t.Error("truncated stream decoded without error")
	}

	// Each check fires on its own: the count against the closed form,
	// the order-sensitive checksum, and the trailer status.
	var short digest
	var swapped digest
	var first [2]int
	i := 0
	p.EachEdge(func(v, w int) bool {
		switch i {
		case 0:
			first = [2]int{v, w}
		case 1:
			swapped.add(v, w)
			swapped.add(first[0], first[1])
		default:
			swapped.add(v, w)
		}
		if int64(i) != k {
			short.add(v, w)
		}
		i++
		return true
	})
	for _, c := range []struct {
		name string
		f    streamFacts
	}{
		{"dropped edge", streamFacts{got: short, headerTotal: want.n, trailerEdges: want.n, status: "complete"}},
		{"reordered edges", streamFacts{got: swapped, headerTotal: want.n, trailerEdges: want.n, status: "complete"}},
		{"trailer count", streamFacts{got: want, headerTotal: want.n, trailerEdges: want.n - 1, status: "complete"}},
		{"aborted trailer", streamFacts{got: want, headerTotal: want.n, trailerEdges: want.n, status: "aborted"}},
	} {
		if err := checkStream(c.f, want); !errors.Is(err, errCheck) {
			t.Errorf("%s: checkStream = %v, want a check failure", c.name, err)
		}
	}
	if err := checkMerged(swapped, want); err != nil {
		t.Errorf("merge check is order-insensitive, got %v", err)
	}
	if err := checkMerged(short, want); !errors.Is(err, errCheck) {
		t.Errorf("merge check missed a dropped edge: %v", err)
	}
}

// flipBit corrupts one bit in the middle of the first large body write of
// an edge stream, as a faulty proxy or server would.
type flipBit struct {
	http.ResponseWriter
	done bool
}

func (f *flipBit) Write(p []byte) (int, error) {
	if !f.done && len(p) > 64 {
		f.done = true
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 1
		return f.ResponseWriter.Write(q)
	}
	return f.ResponseWriter.Write(p)
}

func (f *flipBit) Flush() { f.ResponseWriter.(http.Flusher).Flush() }

func TestStreamOpFailsOnCorruptServer(t *testing.T) {
	sp, p := buildTest(t)
	srv := serve.New(serve.Config{})
	t.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/edges") {
			w = &flipBit{ResponseWriter: w}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	b := &bench{srv: &server{base: ts.URL}}
	c := newClient(1)
	_, err := b.streamOp(context.Background(), c, newBinReader(), sp, reference(p))
	b.note(err)
	if !errors.Is(err, errCheck) || b.failed != 1 {
		t.Fatalf("stream op over a corrupting server: err %v, failed %d", err, b.failed)
	}
}

func TestTruthCheckCatchesWrongField(t *testing.T) {
	sp, p := buildTest(t)
	r := inProcess(t)
	pl := &planner{seed: 7, specs: []spec.Spec{sp}, prods: []*core.Product{p}}
	for _, kind := range []int{kindStats, kindVertex, kindEdge} {
		var q truthQuery
		for i := int64(0); ; i++ {
			if q = pl.at(i); q.kind == kind {
				break
			}
		}
		w := newSinkWriter(true)
		r.do("GET", pl.url(q), "", w)
		body := w.buf.Bytes()
		if err := checkAnswer(sp, p, q, body); err != nil {
			t.Fatalf("kind %d: clean answer rejected: %v", kind, err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		switch kind {
		case kindStats:
			m["global_four_cycles"] = m["global_four_cycles"].(float64) + 1
		case kindVertex:
			m["vertex"].(map[string]any)["four_cycles"] = m["vertex"].(map[string]any)["four_cycles"].(float64) + 1
		case kindEdge:
			m["edge"].(map[string]any)["clustering"] = m["edge"].(map[string]any)["clustering"].(float64) + 0.25
		}
		bad, _ := json.Marshal(m)
		if err := checkAnswer(sp, p, q, bad); !errors.Is(err, errCheck) {
			t.Errorf("kind %d: wrong field accepted: %v", kind, err)
		}
	}
}

func TestAuditCheckCatchesViolation(t *testing.T) {
	_, p := buildTest(t)
	run := func(drop int64) error {
		a := audit.New(p, audit.Options{SampleEvery: 1})
		sh := a.Stream().ForShard()
		var i int64
		p.EachEdge(func(v, w int) bool {
			if i != drop {
				_ = sh.Edge(v, w)
			}
			i++
			return true
		})
		if err := kexec.Finish(sh); err != nil {
			return err
		}
		rep := a.Finalize()
		return checkAudit(rep.Checks, len(rep.Violations))
	}
	if err := run(-1); err != nil {
		t.Fatalf("clean stream failed the audit: %v", err)
	}
	if err := run(123); !errors.Is(err, errCheck) {
		t.Errorf("audit of a stream with a dropped edge: %v, want a check failure", err)
	}
	if err := checkAudit(0, 0); !errors.Is(err, errCheck) {
		t.Error("an audit that ran no checks passed")
	}
}

func TestTSVDigest(t *testing.T) {
	var want digest
	want.add(1, 2)
	want.add(30, 4)
	var got tsvDigest
	for _, part := range []string{"1\t", "2\n3", "0\t4", "\n"} {
		_, _ = got.Write([]byte(part))
	}
	if got.err() != nil || got.digest != want {
		t.Errorf("split writes: %+v (err %v), want %+v", got.digest, got.err(), want)
	}
	for _, bad := range []string{"1\t2", "1 2\n", "1\t2\t3\n", "\t2\n"} {
		var d tsvDigest
		_, _ = d.Write([]byte(bad))
		if d.err() == nil {
			t.Errorf("%q accepted", strings.ReplaceAll(bad, "\t", `\t`))
		}
	}
}
