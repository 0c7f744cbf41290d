package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdht/internal/obs"
	"pdht/internal/topk"
)

// wireSample is one named frame of the sample set the round-trip,
// truncation, corpus and benchmark code all walk: every op as a request,
// every response shape, binary and JSON kinds alike.
type wireSample struct {
	name string
	f    frame
}

func wireSamples() []wireSample {
	table := []PeerState{
		{Addr: "127.0.0.1:7070", Status: 0, Incarnation: 3},
		{Addr: "127.0.0.1:7071", Status: 1, Incarnation: 1},
		{Addr: "127.0.0.1:7072", Status: 2},
	}
	req := func(name string, r Request) wireSample { return wireSample{"req-" + name, frame{ID: 7, Req: &r}} }
	resp := func(name string, r Response) wireSample {
		return wireSample{"resp-" + name, frame{ID: 1 << 40, Resp: &r}}
	}
	return []wireSample{
		req("query", Request{Op: OpQuery, Key: 0x9e3779b97f4a7c15, ViewHash: 0xdeadbeefcafef00d}),
		req("query-sampled", Request{Op: OpQuery, From: "127.0.0.1:7070", Key: 5, ViewHash: 6, TraceID: 0xfeedface}),
		req("insert", Request{Op: OpInsert, From: "n1", Key: 9, Value: 10, TTL: 1 << 20, ViewHash: 11}),
		req("insert-handoff", Request{Op: OpInsert, Key: 9, Value: 10, TTL: 30}),
		req("refresh", Request{Op: OpRefresh, Key: 9, TTL: 86400, ViewHash: 11}),
		req("broadcast", Request{Op: OpBroadcast, From: "n2", Key: 12}),
		req("batch", Request{Op: OpBatch, ViewHash: 13, Batch: []BatchItem{
			{Op: OpQuery, Key: 2, TTL: 30},
			{Op: OpQuery, Key: 3},
			{Op: OpInsert, Key: 4, Value: 9, TTL: -1},
			{Op: OpRefresh, Key: 1 << 63, TTL: 1 << 20},
		}}),
		req("gossip-ping", Request{Op: OpGossip, From: "n1", Gossip: &Gossip{Kind: GossipPing, From: "n1", Updates: table[:1]}}),
		req("gossip-sync", Request{Op: OpGossip, Gossip: &Gossip{Kind: GossipSync, From: "n1", Full: true, Updates: table}}),
		req("gossip-pingreq", Request{Op: OpGossip, Gossip: &Gossip{Kind: GossipPingReq, From: "n1", Target: "n3"}}),
		req("stats", Request{Op: OpStats, From: "top"}),
		req("topk", Request{Op: OpTopK, From: "n1", TraceID: 4, TopK: &topk.Req{Terms: []uint64{1, 1 << 60}, Weights: []float64{0.25, 1.5}, K: 4, Offset: 8}}),
		req("unknown-op", Request{Op: Op(200), Key: 1}),

		resp("hit", Response{OK: true, Found: true, Value: 0x0123456789abcdef}),
		resp("miss", Response{OK: true}),
		resp("zero", Response{}),
		resp("err", Response{Err: "insert refused: cache full"}),
		resp("batch", Response{OK: true, Batch: []BatchResult{
			{OK: true, Found: true, Value: 20},
			{OK: true},
			{Err: "insert without ttl"},
			{},
		}}),
		resp("stale-view", Response{Err: StaleView, Gossip: &Gossip{Kind: GossipAck, From: "n2", Full: true, Updates: table}}),
		resp("traced", Response{OK: true, Found: true, Value: 21, Spans: []obs.Span{
			{Name: "index-lookup", Outcome: "hit", Start: 1500 * time.Nanosecond, Duration: 700 * time.Nanosecond},
			{Name: "store-append", Outcome: "ok", Start: 3 * time.Microsecond},
		}}),
		resp("gossip-ack", Response{OK: true, Gossip: &Gossip{Kind: GossipAck, From: "n2", Updates: table[1:]}}),
		resp("stats", Response{OK: true, Stats: &obs.Snapshot{Addr: "n2", Points: []obs.SnapPoint{
			{Name: "pdht_node_queries_total", Kind: "counter", Value: 42},
			{Name: "pdht_adapt_fmin", Kind: "gauge", Special: "NaN"},
			{Name: "pdht_transport_request_seconds", Labels: []obs.Label{{Name: "op", Value: "query"}}, Kind: "histogram",
				Bounds: []float64{0.001, 0.01}, Counts: []uint64{5, 1, 0}, Sum: 0.0123, Count: 6},
		}}}),
		resp("topk", Response{OK: true, TopK: &topk.Resp{Entries: []topk.Entry{{Doc: 301, Score: 2}, {Doc: 302, Score: 0.75}}, More: 0.5}}),
	}
}

func encode(t testing.TB, f frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decode(b []byte) (frame, error) { return decodeSized(b, 4096) }

// decodeSized reads one frame through a buffer of the given size: frames
// that fit are decoded in place, larger ones through a body buffer.
func decodeSized(b []byte, size int) (frame, error) {
	return readFrame(bufio.NewReaderSize(bytes.NewReader(b), size))
}

// typedFrameError reports whether err belongs to the decoder's error
// vocabulary: a format violation, an incompatible peer, or a stream that
// ended.
func typedFrameError(err error) bool {
	return errors.Is(err, ErrFrame) || errors.Is(err, ErrWireVersion) ||
		err == io.EOF || err == io.ErrUnexpectedEOF
}

func TestFrameRoundTripEveryShape(t *testing.T) {
	var stream []byte
	for _, s := range wireSamples() {
		b := encode(t, s.f)
		if n := int(binary.BigEndian.Uint32(b)); n != len(b)-4 {
			t.Fatalf("%s: length prefix %d over %d bytes", s.name, n, len(b)-4)
		}
		got, err := decode(b)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, s.f) {
			t.Errorf("%s: decoded %+v / %+v, want %+v / %+v", s.name, got.Req, got.Resp, s.f.Req, s.f.Resp)
		}
		wantJSON := strings.Contains(s.name, "gossip") || strings.Contains(s.name, "topk") ||
			strings.Contains(s.name, "stale-view") || strings.Contains(s.name, "traced") || s.name == "resp-stats"
		if isJSON := b[5] == kindRequestJSON || b[5] == kindResponseJSON; isJSON != wantJSON {
			t.Errorf("%s: kind %d, want a JSON body: %v", s.name, b[5], wantJSON)
		}
		stream = append(stream, b...)
	}
	// Back to back on one connection, small frames decoded in place and the
	// large ones through the body buffer, nothing bleeds across.
	r := bufio.NewReaderSize(bytes.NewReader(stream), 64)
	for _, s := range wireSamples() {
		got, err := readFrame(r)
		if err != nil || !reflect.DeepEqual(got, s.f) {
			t.Fatalf("%s in a stream: %+v, %v", s.name, got, err)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameSizes pins the byte cost of the hot shapes, so a format change
// that fattens them is a deliberate one.
func TestFrameSizes(t *testing.T) {
	sizes := make(map[string]int)
	for _, s := range wireSamples() {
		sizes[s.name] = len(encode(t, s.f))
	}
	for name, want := range map[string]int{
		"req-query": 4 + envelopeSize + 2 + 8 + 8,
		"resp-hit":  4 + envelopeSize + 1 + 8,
		"resp-miss": 4 + envelopeSize + 1,
	} {
		if sizes[name] != want {
			t.Errorf("%s is %d bytes on the wire, want %d", name, sizes[name], want)
		}
	}
}

func TestFrameTruncatedAtEveryOffset(t *testing.T) {
	for _, s := range wireSamples() {
		b := encode(t, s.f)
		for cut := 0; cut < len(b); cut++ {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			for _, size := range []int{4096, 16} { // in place, and through the body buffer
				if _, err := decodeSized(b[:cut], size); err != want {
					t.Fatalf("%s cut at %d of %d: err = %v, want %v", s.name, cut, len(b), err, want)
				}
			}
			// The same cut with the length prefix rewritten to match: the
			// envelope is whole, the body ends inside a field.
			if cut < 4+envelopeSize {
				continue
			}
			short := append([]byte(nil), b[:cut]...)
			binary.BigEndian.PutUint32(short, uint32(cut-4))
			if _, err := decode(short); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s shortened to %d of %d: err = %v, want ErrFrame", s.name, cut, len(b), err)
			}
		}
	}
}

func TestFrameRefusals(t *testing.T) {
	query := encode(t, frame{ID: 1, Req: &Request{Op: OpQuery, Key: 2}})
	patch := func(b []byte, at int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[at] = v
		return out
	}
	grow := func(b []byte, extra ...byte) []byte {
		out := append(append([]byte(nil), b...), extra...)
		binary.BigEndian.PutUint32(out, uint32(len(out)-4))
		return out
	}
	// A batch request whose count claims far more items than bytes follow.
	batch := encode(t, frame{ID: 1, Req: &Request{Op: OpBatch, Batch: []BatchItem{{Op: OpQuery, Key: 1}}}})
	countAt := 4 + envelopeSize + 2
	hugeCount := grow(append(append([]byte(nil), batch[:countAt]...), 0xff, 0xff, 0xff, 0x7f), batch[countAt+1:]...)
	results := encode(t, frame{ID: 1, Resp: &Response{Batch: []BatchResult{{OK: true}}}})
	// A JSON-framed build's frame: its body starts where the version goes.
	legacy := []byte(`{"id":1,"req":{"op":1,"key":2}}`)
	legacy = append(binary.BigEndian.AppendUint32(nil, uint32(len(legacy))), legacy...)

	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"version 0", patch(query, 4, 0), ErrWireVersion},
		{"version 2", patch(query, 4, 2), ErrWireVersion},
		{"legacy JSON frame", legacy, ErrWireVersion},
		{"kind 0", patch(query, 5, 0), ErrWireVersion},
		{"kind 5", patch(query, 5, 5), ErrWireVersion},
		{"request decoded as a response", patch(query, 5, kindResponse), ErrFrame},
		{"undefined request flag", patch(query, 4+envelopeSize+1, 0x80|reqKey), ErrFrame},
		{"undefined item flag", patch(batch, countAt+2, 0x04), ErrFrame},
		{"undefined response flag", patch(results, 4+envelopeSize, 0x20), ErrFrame},
		{"trailing byte", grow(query, 0), ErrFrame},
		{"trailing bytes after JSON", grow(encode(t, wireSamples()[7].f), '{', '}'), ErrFrame},
		{"batch count beyond its bytes", hugeCount, ErrFrame},
		{"result count beyond its bytes", grow(results[:len(results)-2], 200, 1), ErrFrame},
		{"string length beyond its bytes", grow(encode(t, frame{ID: 1, Resp: &Response{Err: "x"}})[:4+envelopeSize+1], 9, 'x'), ErrFrame},
		{"length below the envelope", []byte{0, 0, 0, 9, 1, 1, 0, 0, 0, 0, 0, 0, 0}, ErrFrame},
		{"empty JSON body", grow(patch(query, 5, kindRequestJSON)[:4+envelopeSize]), ErrFrame},
	} {
		if _, err := decode(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFrameEncodeGuards checks the sender's half: a frame over the limit
// never reaches the socket, and neither does a frame that is not exactly
// one request or one response.
func TestFrameEncodeGuards(t *testing.T) {
	var w bytes.Buffer
	big := &Request{Op: OpBatch, Batch: make([]BatchItem, maxFrameSize/itemMinSize+1)}
	if err := writeFrame(&w, frame{ID: 1, Req: big}); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized batch: err = %v, want ErrFrame", err)
	}
	wide := &Response{Gossip: &Gossip{From: strings.Repeat("x", maxFrameSize)}}
	if err := writeFrame(&w, frame{ID: 1, Resp: wide}); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized JSON payload: err = %v, want ErrFrame", err)
	}
	if err := writeFrame(&w, frame{ID: 1}); err == nil {
		t.Error("frame without a request or response was encoded")
	}
	if err := writeFrame(&w, frame{ID: 1, Req: &Request{}, Resp: &Response{}}); err == nil {
		t.Error("frame with both a request and a response was encoded")
	}
	if w.Len() != 0 {
		t.Errorf("%d bytes of refused frames reached the writer", w.Len())
	}
	// The largest batch the limit admits still round-trips.
	fits := &Request{Op: OpBatch, Batch: make([]BatchItem, (maxFrameSize-envelopeSize-8)/itemMinSize)}
	got, err := decode(encode(t, frame{ID: 1, Req: fits}))
	if err != nil || len(got.Req.Batch) != len(fits.Batch) {
		t.Fatalf("largest admissible batch: %v", err)
	}
}

// TestMaxBatchItemsFitsAFrame holds MaxBatchItems to the codec: a request
// of that many items, each as long as an item encodes, with every request
// field set, still encodes, and so does its reply with every result as
// long as the index ops make one.
func TestMaxBatchItemsFitsAFrame(t *testing.T) {
	const maxU = ^uint64(0)
	items := make([]BatchItem, MaxBatchItems)
	results := make([]BatchResult, MaxBatchItems)
	for i := range items {
		items[i] = BatchItem{Op: OpInsert, Key: maxU, Value: maxU, TTL: 1<<34 - 1}
		results[i] = BatchResult{Err: "refresh without ttl"}
	}
	req := &Request{Op: OpBatch, From: strings.Repeat("h", 255) + ":65535", Key: maxU, Value: maxU,
		TTL: 1<<34 - 1, ViewHash: maxU, TraceID: maxU, Batch: items}
	if _, err := appendFrame(nil, frame{ID: maxU, Req: req}); err != nil {
		t.Errorf("request of MaxBatchItems = %d items: %v", MaxBatchItems, err)
	}
	if _, err := appendFrame(nil, frame{ID: maxU, Resp: &Response{OK: true, Batch: results}}); err != nil {
		t.Errorf("reply to MaxBatchItems = %d items: %v", MaxBatchItems, err)
	}
}

// TestCodecAllocs gates the hot pair: encoding and decoding one OpQuery
// request and its hit response allocates the two decoded structs and
// nothing else — no reflection, no body buffer, no per-field boxing.
func TestCodecAllocs(t *testing.T) {
	req := frame{ID: 1, Req: &Request{Op: OpQuery, Key: 0x9e3779b97f4a7c15, ViewHash: 0xdeadbeef}}
	resp := frame{ID: 1, Resp: &Response{OK: true, Found: true, Value: 42}}
	buf := make([]byte, 0, 128)
	var sink frame
	allocs := testing.AllocsPerRun(1000, func() {
		for _, f := range [2]frame{req, resp} {
			b, err := appendFrame(buf[:0], f)
			if err != nil {
				t.Fatal(err)
			}
			if sink, err = decodeFrame(b[4:]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 2 {
		t.Errorf("query request+response encode+decode: %.0f allocs, want ≤ 2", allocs)
	}
	if sink.Resp == nil || sink.Resp.Value != 42 {
		t.Fatalf("decoded %+v", sink.Resp)
	}
}

// FuzzReadFrame feeds the decoder arbitrary bytes: it must never panic,
// every failure must be one of the typed errors, and whatever it accepts
// must have been sized by bytes that were really there.
func FuzzReadFrame(f *testing.F) {
	for _, s := range wireSamples() {
		f.Add(encode(f, s.f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := readFrame(r)
			if err != nil {
				if !typedFrameError(err) {
					t.Fatalf("untyped decode error: %v", err)
				}
				return
			}
			if (fr.Req == nil) == (fr.Resp == nil) {
				t.Fatalf("decoded frame holds %v / %v, want exactly one", fr.Req, fr.Resp)
			}
			if fr.Req != nil && len(fr.Req.Batch) > len(data)/itemMinSize {
				t.Fatalf("%d batch items out of %d bytes", len(fr.Req.Batch), len(data))
			}
			if fr.Resp != nil && len(fr.Resp.Batch) > len(data) {
				t.Fatalf("%d batch results out of %d bytes", len(fr.Resp.Batch), len(data))
			}
			// What decoded must encode again, and that encoding — the
			// canonical one: the input may have spelled a zero field out —
			// is a fixed point of decode-then-encode.
			canon, err := appendFrame(nil, fr)
			if err != nil {
				t.Fatalf("re-encode of an accepted frame: %v", err)
			}
			back, err := decode(canon)
			if err != nil {
				t.Fatalf("canonical encoding refused: %v", err)
			}
			if again, err := appendFrame(nil, back); err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("canonical encoding is not a fixed point: %x then %x (%v)", canon, again, err)
			}
		}
	})
}

// roundTripArgs is the flat argument list FuzzFrameRoundTrip builds one
// Request or Response from; fuzz targets take only primitives.
type roundTripArgs struct {
	resp               bool
	op                 uint64
	text               string
	key, value         uint64
	ttl                int64
	view, trace        uint64
	batch, bits, extra uint64
}

func (a roundTripArgs) frame() frame {
	// JSON bodies carry strings as UTF-8; the binary bodies carry bytes.
	text := a.text
	if a.extra%6 != 0 {
		text = strings.ToValidUTF8(text, "?")
	}
	table := []PeerState{{Addr: text, Status: uint8(a.bits), Incarnation: a.view}, {Addr: "n2"}}
	if !a.resp {
		r := &Request{Op: Op(a.op), From: text, Key: a.key, Value: a.value, TTL: int(a.ttl), ViewHash: a.view, TraceID: a.trace}
		for i := uint64(0); i < a.batch%40; i++ {
			r.Batch = append(r.Batch, BatchItem{Op: Op(a.op + i), Key: a.key + i, Value: a.value * (i % 3), TTL: int(a.ttl) * int(i%2)})
		}
		switch a.extra % 6 {
		case 1:
			r.Gossip = &Gossip{Kind: GossipKind(a.bits), From: text, Target: text, Full: a.bits&4 != 0, Updates: table}
		case 2:
			r.TopK = &topk.Req{Terms: []uint64{a.key, a.value}, Weights: []float64{float64(a.view%1000) / 8}, K: int(a.batch), Offset: int(a.bits)}
		}
		return frame{ID: a.trace ^ a.key, Req: r}
	}
	r := &Response{OK: a.bits&1 != 0, Found: a.bits&2 != 0, Value: a.value, Err: text}
	for i := uint64(0); i < a.batch%40; i++ {
		res := BatchResult{OK: i%2 == 0, Found: i%3 == 0, Value: a.value * (i % 3)}
		if i%5 == 4 {
			res.Err = text
		}
		r.Batch = append(r.Batch, res)
	}
	switch a.extra % 6 {
	case 1:
		r.Gossip = &Gossip{Kind: GossipAck, From: text, Full: true, Updates: table}
	case 2:
		r.TopK = &topk.Resp{Entries: []topk.Entry{{Doc: a.key, Score: float64(a.view%1000) / 8}}, More: float64(a.bits)}
	case 3:
		r.Spans = []obs.Span{{Name: text, Outcome: "hit", Start: time.Duration(a.ttl), Duration: time.Duration(a.key % (1 << 40))}}
	case 4:
		r.Stats = &obs.Snapshot{Addr: text, Points: []obs.SnapPoint{{Name: "pdht_x_total", Kind: "counter", Value: float64(a.key % (1 << 50))}}}
	}
	return frame{ID: a.trace ^ a.key, Resp: r}
}

// roundTripSeeds are the committed FuzzFrameRoundTrip seeds: every op as a
// request, and a response of every kind.
func roundTripSeeds() []roundTripArgs {
	var seeds []roundTripArgs
	for op := OpQuery; op < opEnd; op++ {
		a := roundTripArgs{op: uint64(op), text: "127.0.0.1:7070", key: 0x9e3779b97f4a7c15, value: 7, ttl: 1 << 20, view: 0xdeadbeef}
		switch op {
		case OpBatch:
			a.batch = 32
		case OpGossip:
			a.extra, a.bits = 1, uint64(GossipSync)
		case OpTopK:
			a.extra, a.batch, a.trace = 2, 4, 99
		}
		seeds = append(seeds, a)
	}
	for extra := uint64(0); extra < 5; extra++ {
		a := roundTripArgs{resp: true, text: "", value: 21, bits: 3, extra: extra, key: 12345, view: 77, ttl: 1500}
		if extra == 1 {
			a.text, a.bits = StaleView, 0
		}
		seeds = append(seeds, a)
	}
	seeds = append(seeds,
		roundTripArgs{resp: true, bits: 1, batch: 32, value: 5, text: "insert without ttl"},
		roundTripArgs{op: uint64(OpInsert), text: "caf\xe9", key: 1, value: 2, ttl: -3}, // bytes, not UTF-8: binary only
	)
	return seeds
}

// FuzzFrameRoundTrip builds a structured Request or Response of either
// kind and checks decode(encode(x)) deep-equals x.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, a := range roundTripSeeds() {
		f.Add(a.resp, a.op, a.text, a.key, a.value, a.ttl, a.view, a.trace, a.batch, a.bits, a.extra)
	}
	f.Fuzz(func(t *testing.T, resp bool, op uint64, text string, key, value uint64, ttl int64, view, trace, batch, bits, extra uint64) {
		want := roundTripArgs{resp, op, text, key, value, ttl, view, trace, batch, bits, extra}.frame()
		b, err := appendFrame(nil, want)
		if err != nil {
			if len(text) > maxFrameSize/8 && errors.Is(err, ErrFrame) {
				return // honestly too large
			}
			t.Fatalf("encode: %v", err)
		}
		got, err := decode(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the frame:\n got %+v / %+v\nwant %+v / %+v", got.Req, got.Resp, want.Req, want.Resp)
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// TestFuzzCorpusIsCurrent keeps the committed seed corpus equal to what
// the sample set encodes to today, so a format change cannot leave the
// fuzzers starting from frames of the previous format. Regenerate with
// `go test ./internal/transport -run TestFuzzCorpusIsCurrent -update`.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	want := make(map[string]string)
	for _, s := range wireSamples() {
		want[filepath.Join("FuzzReadFrame", s.name)] = "go test fuzz v1\n[]byte(" + strconv.Quote(string(encode(t, s.f))) + ")\n"
	}
	for i, a := range roundTripSeeds() {
		want[filepath.Join("FuzzFrameRoundTrip", fmt.Sprintf("seed-%02d", i))] = fmt.Sprintf(
			"go test fuzz v1\nbool(%v)\nuint64(%d)\nstring(%q)\nuint64(%d)\nuint64(%d)\nint64(%d)\nuint64(%d)\nuint64(%d)\nuint64(%d)\nuint64(%d)\nuint64(%d)\n",
			a.resp, a.op, a.text, a.key, a.value, a.ttl, a.view, a.trace, a.batch, a.bits, a.extra)
	}
	root := filepath.Join("testdata", "fuzz")
	for name, content := range want {
		path := filepath.Join(root, name)
		if *updateCorpus {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("seed missing (run with -update): %v", err)
		} else if string(got) != content {
			t.Errorf("%s is stale (run with -update)", path)
		}
	}
}

// batch32Request is the 32-key query batch both layer benchmarks send: the
// shape QueryMany puts on the wire per destination.
func batch32Request() Request {
	req := Request{Op: OpBatch, ViewHash: 13}
	for i := uint64(0); i < 32; i++ {
		req.Batch = append(req.Batch, BatchItem{Op: OpQuery, Key: i * 0x9e3779b97f4a7c15, TTL: 1 << 20})
	}
	return req
}

// BenchmarkWireCodec is the codec layer benchmark: encode and decode per
// frame shape, no socket.
func BenchmarkWireCodec(b *testing.B) {
	batch32 := batch32Request()
	samples := append(wireSamples(), wireSample{"req-batch32", frame{ID: 1, Req: &batch32}})
	for _, s := range samples {
		wire := encode(b, s.f)
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			buf := make([]byte, 0, len(wire))
			for b.Loop() {
				if _, err := appendFrame(buf[:0], s.f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for b.Loop() {
				if _, err := decodeFrame(wire[4:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
