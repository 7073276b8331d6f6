package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kronbip/internal/distgen"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// pollEvery is the job-status polling interval of a chain-bin op.
const pollEvery = 5 * time.Millisecond

// The fixed lease-merge grid.
const leaseRows, leaseCols = 4, 4

// jobStatus is the part of a job's status the benchmark checks.
type jobStatus struct {
	ID              string `json:"id"`
	State           string `json:"state"`
	Error           string `json:"error"`
	NumEdges        int64  `json:"num_edges"`
	AuditViolations int    `json:"audit_violations"`
}

// submitBody renders a spec as a POST /v1/jobs or lease body.
func submitBody(sp spec.Spec) string {
	fs, _ := json.Marshal(sp.Factors)
	return fmt.Sprintf(`{"factors":%s,"mode":%q,"seed":%d}`, fs, sp.Mode, sp.Seed)
}

// streamOp is one chain-bin op: submit a job, poll it until done, then
// stream its edges in the binary format, decoding incrementally and
// checking count, trailers and checksum against want.
func (b *bench) streamOp(ctx context.Context, c *http.Client, br *binReader, sp spec.Spec, want digest) (int64, error) {
	t := b.tr
	root := t.begin("op.stream", nil)
	defer func() { root.end(want.n) }()

	sub := t.begin("http.submit", root)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.srv.base+"/v1/jobs", strings.NewReader(submitBody(sp)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sub.end(0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var js jobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}

	wait := t.begin("job.wait", root)
	for js.State != "done" {
		if js.State == "failed" || js.State == "cancelled" {
			return 0, fmt.Errorf("job %s %s: %s", js.ID, js.State, js.Error)
		}
		time.Sleep(pollEvery)
		poll := t.begin("http.poll", wait)
		body, err := getOK(ctx, c, b.srv.base+"/v1/jobs/"+js.ID)
		poll.end(0)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(body, &js); err != nil {
			return 0, fmt.Errorf("poll: %w", err)
		}
	}
	wait.end(0)
	if js.NumEdges != want.n || js.AuditViolations != 0 {
		return 0, fmt.Errorf("%w: job %s: num_edges %d (closed form %d), audit violations %d",
			errCheck, js.ID, js.NumEdges, want.n, js.AuditViolations)
	}

	es := t.begin("http.edges", root)
	ttfb := t.begin("http.ttfb", root)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, b.srv.base+"/v1/jobs/"+js.ID+"/edges?format=bin", nil)
	if err != nil {
		return 0, err
	}
	resp, err = c.Do(req)
	ttfb.end(0)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("edges: status %d", resp.StatusCode)
	}
	var f streamFacts
	f.headerTotal, _ = strconv.ParseInt(resp.Header.Get(serve.HeaderStreamTotal), 10, 64)
	br.onDecode = nil
	if t != nil {
		br.onDecode = func(decode func()) { d := t.begin("client.decode", es); decode(); d.end(0) }
	}
	n, err := br.read(resp.Body, 0, f.got.add)
	es.end(n)
	if err != nil {
		return n, err
	}
	f.status = resp.Trailer.Get(serve.TrailerStatus)
	f.trailerEdges, _ = strconv.ParseInt(resp.Trailer.Get(serve.TrailerEdges), 10, 64)
	return n, checkStream(f, want)
}

// leaseOp is one lease-merge op: a dist-gen run over the fixed grid with
// the one configured replica, tsv rendering and the online audit; the
// merged output is digested as it is written.
func (b *bench) leaseOp(ctx context.Context, c *http.Client, sp spec.Spec, want digest) (int64, error) {
	root := b.tr.begin("op.lease", nil)
	b.curOp.Store(root)
	var out tsvDigest
	res, err := distgen.Run(ctx, sp, &out, distgen.Options{
		Workers: []string{b.srv.base},
		Rows:    leaseRows,
		Cols:    leaseCols,
		Format:  "tsv",
		Audit:   true,
		Client:  c,
	})
	root.end(want.n)
	if err != nil {
		return 0, err
	}
	if err := out.err(); err != nil {
		return 0, fmt.Errorf("%w: %v", errCheck, err)
	}
	if res.Edges != want.n || res.Blocks != leaseRows*leaseCols {
		return 0, fmt.Errorf("%w: dist-gen merged %d edges in %d blocks, closed form %d in %d",
			errCheck, res.Edges, res.Blocks, want.n, leaseRows*leaseCols)
	}
	if err := checkAudit(res.AuditChecks, res.AuditViolations); err != nil {
		return 0, err
	}
	return res.Edges, checkMerged(out.digest, want)
}
