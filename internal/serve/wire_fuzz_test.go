package serve

import (
	"bytes"
	"testing"

	"kronbip/internal/exec"
)

// FuzzDecodeWire feeds DecodeWire the bytes a coordinator receives from
// remote workers.  On any input it must not panic, and what it reports
// must agree with the payload: the yielded edges number `edges`,
// `trailing` is a suffix of the payload, and re-decoding the complete
// prefix reproduces the same result with nothing trailing.  The payload
// also seeds an edge list that goes through the encoder; decoding that
// output must round-trip the edges, and any truncation of it must decode
// to a prefix of them ending at `next`.
func FuzzDecodeWire(f *testing.F) {
	enc := func(tb testing.TB, start int64, edges []exec.Edge) []byte {
		var buf bytes.Buffer
		s := newBinSink(&buf, []int64{0, start + int64(len(edges))}, start)
		if err := s.EdgeBatch(edges); err != nil {
			tb.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{}, int64(0))
	f.Add([]byte{1, 0, 3, 4}, int64(0))
	f.Add([]byte{0}, int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(-1))
	f.Add(enc(f, 0, []exec.Edge{{V: 1, W: 2}, {V: 3, W: 4}, {V: 2, W: 9}}), int64(0))
	f.Add(enc(f, 7, []exec.Edge{{V: 1 << 40, W: 0}, {V: 0, W: 1 << 40}}), int64(7))
	f.Fuzz(func(t *testing.T, payload []byte, start int64) {
		if start < -1 {
			start = -1
		}
		// Arbitrary bytes.
		var yielded int64
		edges, next, trailing, err := DecodeWire(payload, start, func(_, _ int) { yielded++ })
		if yielded != edges || edges < 0 || trailing < 0 || trailing > len(payload) {
			t.Fatalf("yielded %d, edges %d, trailing %d of %d bytes", yielded, edges, trailing, len(payload))
		}
		if err == nil && start >= 0 && next != start+edges {
			t.Fatalf("start %d + %d edges, but next = %d", start, edges, next)
		}
		if err == nil {
			e2, n2, t2, err2 := DecodeWire(payload[:len(payload)-trailing], start, nil)
			if err2 != nil || e2 != edges || n2 != next || t2 != 0 {
				t.Fatalf("complete prefix re-decodes to (%d, %d, %d, %v), want (%d, %d, 0, nil)", e2, n2, t2, err2, edges, next)
			}
		}

		// Encoder output built from the same bytes.
		if start < 0 {
			start = 0
		}
		start %= 1 << 40
		var want []exec.Edge
		for i := 0; i+1 < len(payload) && len(want) < 2*WireFrameEdges+3; i += 2 {
			want = append(want, exec.Edge{V: int(payload[i]) << (payload[i+1] % 48), W: int(payload[i+1]) + i})
		}
		wire := enc(t, start, want)
		for _, cut := range []int{len(wire), len(wire) / 2, len(wire) / 3} {
			var got []exec.Edge
			edges, next, trailing, err := DecodeWire(wire[:cut], start, func(v, w int) { got = append(got, exec.Edge{V: v, W: w}) })
			if err != nil {
				t.Fatalf("encoder output cut at %d/%d: %v", cut, len(wire), err)
			}
			if cut == len(wire) && (trailing != 0 || edges != int64(len(want))) {
				t.Fatalf("whole encoder output: %d edges, %d trailing bytes; want %d, 0", edges, trailing, len(want))
			}
			if next != start+edges || int64(len(got)) != edges {
				t.Fatalf("cut at %d: %d edges yielded, %d reported, next %d from start %d", cut, len(got), edges, next, start)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cut at %d: edge %d decoded as %v, want %v", cut, i, got[i], want[i])
				}
			}
		}
	})
}
