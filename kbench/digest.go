package main

import (
	"errors"
	"fmt"
	"io"

	"kronbip/internal/core"
	"kronbip/internal/serve"
)

// digest is an independent checksum of an edge stream: the count, an
// order-sensitive hash (a reordered or substituted edge changes it) and an
// order-insensitive one (for the dist-gen merge, whose block order is a
// permutation of the canonical order).
type digest struct {
	n   int64
	seq uint64
	set uint64
}

// mix is splitmix64 over the packed edge.
func mix(v, w int) uint64 {
	x := uint64(v)<<32 ^ uint64(uint32(w))
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (d *digest) add(v, w int) {
	m := mix(v, w)
	d.n++
	d.set += m
	d.seq = (d.seq ^ m) * 0x100000001b3
}

// reference digests p's canonical edge order through core.Product.EachEdge,
// a walker none of the served paths (range, block, parallel span) use.
func reference(p *core.Product) digest {
	var d digest
	p.EachEdge(func(v, w int) bool { d.add(v, w); return true })
	return d
}

// binReader decodes a binary wire stream incrementally: bytes are decoded
// as they arrive and only an incomplete trailing frame is kept, so the
// whole body is never held in memory.  The buffer is reused across streams.
type binReader struct {
	buf []byte
	// onDecode, when set, is called around every DecodeWire call (the
	// traced run records client.decode spans through it).
	onDecode func(func())
}

func newBinReader() *binReader { return &binReader{buf: make([]byte, 0, 256<<10)} }

// read decodes r from stream offset start, yielding every edge, and
// returns the count.  A frame that does not continue the stream, or bytes
// left over at EOF, are errors.
func (br *binReader) read(r io.Reader, start int64, yield func(v, w int)) (int64, error) {
	buf := br.buf[:0]
	next, total := start, int64(0)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, make([]byte, cap(buf))...)[:len(buf)]
		}
		n, rerr := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		var edges int64
		var trailing int
		var derr error
		decode := func() { edges, next, trailing, derr = serve.DecodeWire(buf, next, yield) }
		if br.onDecode != nil {
			br.onDecode(decode)
		} else {
			decode()
		}
		total += edges
		if derr != nil {
			br.buf = buf
			return total, fmt.Errorf("decode: %w", derr)
		}
		buf = buf[:copy(buf, buf[len(buf)-trailing:])]
		if rerr == io.EOF {
			br.buf = buf
			if len(buf) > 0 {
				return total, fmt.Errorf("decode: %d bytes of a truncated frame at EOF", len(buf))
			}
			return total, nil
		}
		if rerr != nil {
			br.buf = buf
			return total, rerr
		}
	}
}

// tsvDigest is an io.Writer that parses a "v\tw\n" stream into a digest,
// whatever the write boundaries.
type tsvDigest struct {
	digest
	v, cur int
	tabs   int
	digits bool
	bad    error
}

func (t *tsvDigest) Write(p []byte) (int, error) {
	for _, c := range p {
		switch {
		case c >= '0' && c <= '9':
			t.cur = t.cur*10 + int(c-'0')
			t.digits = true
		case c == '\t' && t.digits && t.tabs == 0:
			t.v, t.cur, t.digits, t.tabs = t.cur, 0, false, 1
		case c == '\n' && t.digits && t.tabs == 1:
			t.add(t.v, t.cur)
			t.cur, t.digits, t.tabs = 0, false, 0
		default:
			if t.bad == nil {
				t.bad = fmt.Errorf("tsv: unexpected byte %q after %d edges", c, t.n)
			}
		}
	}
	return len(p), nil
}

// err reports a malformed stream or an unterminated last line.
func (t *tsvDigest) err() error {
	if t.bad != nil {
		return t.bad
	}
	if t.digits || t.tabs != 0 {
		return fmt.Errorf("tsv: unterminated line after %d edges", t.n)
	}
	return nil
}

// streamFacts is what a client saw of one edge stream.
type streamFacts struct {
	got          digest
	headerTotal  int64 // X-Kronbip-Stream-Total
	trailerEdges int64 // X-Kronbip-Edges
	status       string
}

// errCheck marks a verification mismatch (as opposed to a transport error).
var errCheck = errors.New("check failed")

// checkStream compares a canonical-order stream against the closed-form
// edge count and the reference digest.
func checkStream(f streamFacts, want digest) error {
	switch {
	case f.status != "complete":
		return fmt.Errorf("%w: trailer status %q", errCheck, f.status)
	case f.got.n != want.n || f.headerTotal != want.n || f.trailerEdges != want.n:
		return fmt.Errorf("%w: decoded %d, stream total %d, trailer %d, closed form %d",
			errCheck, f.got.n, f.headerTotal, f.trailerEdges, want.n)
	case f.got.seq != want.seq || f.got.set != want.set:
		return fmt.Errorf("%w: checksum %016x/%016x, reference %016x/%016x",
			errCheck, f.got.seq, f.got.set, want.seq, want.set)
	}
	return nil
}

// checkMerged compares a dist-gen merge (any block order) against the
// reference: count and order-insensitive hash.
func checkMerged(got digest, want digest) error {
	if got.n != want.n || got.set != want.set {
		return fmt.Errorf("%w: merged %d edges hash %016x, reference %d edges hash %016x",
			errCheck, got.n, got.set, want.n, want.set)
	}
	return nil
}

// checkAudit requires an audit that ran and found nothing.
func checkAudit(checks, violations int) error {
	if violations != 0 || checks == 0 {
		return fmt.Errorf("%w: audit checks=%d violations=%d", errCheck, checks, violations)
	}
	return nil
}
