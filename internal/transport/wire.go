package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"pdht/internal/obs"
	"pdht/internal/topk"
)

// Op identifies what a request asks the receiving node to do. The
// operations are the RPC surface of the selection algorithm (§5.1) plus
// the membership layer: searching the index at a responsible peer,
// inserting a resolved key with its expiration time, refreshing the
// expiration time on a hit, the unstructured broadcast fallback, the
// SWIM gossip exchange that replaces one-shot joins, and the batched
// index access the client API fans out per destination peer.
type Op uint8

const (
	// OpQuery asks a responsible peer whether Key is live in its index
	// cache. Found/Value report the outcome; the entry's TTL is NOT
	// reset — the querier follows up with OpRefresh, making the paper's
	// reset-on-hit rule an explicit, countable message.
	OpQuery Op = iota + 1
	// OpInsert installs Key→Value with TTL rounds of lifetime in the
	// receiver's index cache — the insert leg after a broadcast success,
	// and the push leg of a membership-change key handoff.
	OpInsert
	// OpRefresh resets the expiration time of a live entry to TTL rounds
	// from now — the reset-on-hit rule of §5.1.
	OpRefresh
	// OpBroadcast asks a peer whether it can answer Key from its local
	// content store — one message of the unstructured search (cSUnstr).
	OpBroadcast
	// OpGossip carries one message of the SWIM membership protocol
	// (internal/gossip): a probe, an indirect probe request, or an
	// anti-entropy state exchange. The payload travels in Request.Gossip;
	// the reply in Response.Gossip.
	OpGossip
	// OpBatch packs several index operations (query/insert/refresh) for
	// the same destination into one request — the amortize-per-request
	// leg of the batched client API. Items travel in Request.Batch and
	// each produces one Response.Batch entry at the same position, so a
	// partial failure (one malformed item, one full cache) stays per-key
	// instead of failing the round trip. The ViewHash check applies once
	// to the whole batch.
	OpBatch
	// OpStats asks a peer for a frozen snapshot of its metrics registry —
	// the fleet-aggregation RPC behind Client.ClusterReport and pdht-top.
	// The reply travels in Response.Stats. Not subject to the ViewHash
	// check: statistics are valid across view transitions.
	OpStats
	// OpTopK asks a peer to score a multi-term query against its local
	// content store and return its best k_i entries — one probe leg of
	// the distributed top-k round protocol (internal/topk). The payload
	// travels in Request.TopK, the scored window in Response.TopK. Not
	// subject to the ViewHash check: content is unrouted, so any two
	// views agree on what a peer holds.
	OpTopK

	// opEnd is one past the highest defined Op — what sizes the per-op
	// metric tables. New ops go above it.
	opEnd
)

// String returns the short label used in logs and errors.
func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	case OpRefresh:
		return "refresh"
	case OpBroadcast:
		return "broadcast"
	case OpGossip:
		return "gossip"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpTopK:
		return "topk"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// StaleView is the Response.Err marker a node returns when a routed RPC
// (query/insert/refresh) carries a membership hash different from its own:
// the two nodes would compute different replica groups, so answering would
// silently mis-route. The response carries the responder's full gossip
// state so the caller can converge and re-route instead of trusting a
// wrong answer.
const StaleView = "stale view"

// GossipKind identifies one message of the SWIM membership protocol.
type GossipKind uint8

const (
	// GossipPing is the direct liveness probe of one protocol period.
	GossipPing GossipKind = iota + 1
	// GossipPingReq asks the receiver to probe Target on the sender's
	// behalf — the indirect probe that keeps an asymmetric link failure
	// from killing a live peer.
	GossipPingReq
	// GossipSync is the anti-entropy exchange: Updates carry the sender's
	// full membership table and the reply carries the receiver's. Joining
	// a cluster is one GossipSync to the seed.
	GossipSync
	// GossipAck is the reply kind: acknowledgment plus piggybacked
	// updates (or the full table when answering a GossipSync).
	GossipAck
)

// PeerState is one row of the gossip membership table on the wire: an
// address, its status (gossip.StatusAlive/Suspect/Dead as uint8) and the
// incarnation number that orders conflicting claims about it.
type PeerState struct {
	Addr        string `json:"addr"`
	Status      uint8  `json:"status,omitempty"`
	Incarnation uint64 `json:"inc,omitempty"`
}

// Gossip is the membership payload of OpGossip requests and responses.
type Gossip struct {
	Kind GossipKind `json:"kind"`
	// From is the message originator's address.
	From string `json:"from,omitempty"`
	// Target is the peer to probe on behalf of From (GossipPingReq).
	Target string `json:"target,omitempty"`
	// Full marks Updates as the sender's complete membership table (an
	// anti-entropy exchange) rather than a piggybacked delta batch.
	Full bool `json:"full,omitempty"`
	// Updates are membership deltas piggybacked on the message.
	Updates []PeerState `json:"updates,omitempty"`
}

// BatchItem is one operation of an OpBatch request. Op selects what the
// receiver does with it: OpQuery looks Key up (and, when TTL is positive,
// applies the reset-on-hit rule in the same round trip — the refresh leg
// the unary path pays a separate message for), OpInsert installs Key→Value
// with TTL rounds of lifetime, OpRefresh resets a live entry's expiration.
// Any other op is refused per item, not per batch.
type BatchItem struct {
	Op    Op     `json:"op"`
	Key   uint64 `json:"key"`
	Value uint64 `json:"value,omitempty"`
	TTL   int    `json:"ttl,omitempty"`
}

// BatchResult is the outcome of one BatchItem, at the same index.
type BatchResult struct {
	// OK mirrors Response.OK (an insert stored, a refresh found a live
	// entry); Found and Value report a query item's outcome.
	OK    bool   `json:"ok,omitempty"`
	Found bool   `json:"found,omitempty"`
	Value uint64 `json:"value,omitempty"`
	// Err is this item's application-level failure; other items of the
	// batch are unaffected.
	Err string `json:"err,omitempty"`
}

// Request is the wire envelope of one call. One struct covers all the
// operations — fields unused by an op are zero and omitted from the
// encoding — because the cost of a per-op type hierarchy outweighs a few
// optional fields.
type Request struct {
	Op Op `json:"op"`
	// From is the sender's own listen address. No handler reads it, so
	// members leave it empty; gossip names its sender in Gossip.From.
	From  string `json:"from,omitempty"`
	Key   uint64 `json:"key,omitempty"`
	Value uint64 `json:"value,omitempty"`
	// TTL is the entry lifetime in rounds for OpInsert/OpRefresh.
	TTL int `json:"ttl,omitempty"`
	// ViewHash is the sender's membership hash on routed operations
	// (query/insert/refresh/batch). A receiver whose own hash differs answers
	// with the StaleView error instead of mis-routing; zero skips the
	// check (handoff pushes, which are valid across view transitions).
	ViewHash uint64 `json:"view,omitempty"`
	// Batch carries the items of an OpBatch request.
	Batch []BatchItem `json:"batch,omitempty"`
	// Gossip is the membership payload of OpGossip.
	Gossip *Gossip `json:"gossip,omitempty"`
	// TraceID, when nonzero, marks the request as part of a sampled
	// cluster-wide trace: an instrumented server records server-side
	// spans for the operation and returns them in Response.Spans so the
	// caller can stitch a cross-peer causality tree. Zero — the common
	// case — costs nothing on either side.
	TraceID uint64 `json:"trace,omitempty"`
	// TopK carries the scored-list window an OpTopK probe asks for.
	TopK *topk.Req `json:"topk,omitempty"`
}

// Response is the wire envelope of one reply.
type Response struct {
	// OK reports that the operation was accepted (an insert stored, a
	// refresh found a live entry, an indirect probe reached its target).
	OK bool `json:"ok,omitempty"`
	// Found and Value report a successful OpQuery or OpBroadcast.
	Found bool   `json:"found,omitempty"`
	Value uint64 `json:"value,omitempty"`
	// Err carries an application-level failure (malformed request,
	// unknown op, StaleView). Transport-level failures never appear here.
	Err string `json:"err,omitempty"`
	// Batch carries the per-item outcomes of an OpBatch request, one
	// entry per Request.Batch item, positions aligned.
	Batch []BatchResult `json:"batch,omitempty"`
	// Gossip carries the reply of an OpGossip exchange — and, on a
	// StaleView error, the responder's full membership state so the
	// caller can converge without an extra round trip.
	Gossip *Gossip `json:"gossip,omitempty"`
	// Spans are the server-side steps recorded for a request that carried
	// a TraceID, offsets relative to request receipt.
	Spans []obs.Span `json:"spans,omitempty"`
	// Stats is the registry snapshot answering an OpStats request.
	Stats *obs.Snapshot `json:"stats,omitempty"`
	// TopK is the scored window answering an OpTopK probe.
	TopK *topk.Resp `json:"topk,omitempty"`
}

// frame is the unit the TCP codec moves: a correlation ID plus either a
// request (client→server) or a response (server→client).
type frame struct {
	ID   uint64
	Req  *Request
	Resp *Response
}

// The wire format (DESIGN.md "Wire format" has the byte tables). Every
// frame is one big-endian envelope
//
//	u32 length | u8 version | u8 kind | u64 id | body
//
// where length counts everything after itself. The kind byte says which
// way the frame travels and how its body is encoded. The data-plane shapes
// — a request without a Gossip or TopK payload, a response made only of
// OK/Found/Value/Err/Batch — use the hand-rolled binary bodies below. A
// frame that carries a control payload (Gossip, TopK, Stats, Spans) is the
// encoding/json rendering of the whole Request or Response: those frames
// are off the hot path, and reflection is less code than a codec for four
// more nested shapes.
const (
	// wireVersion is the only version this build speaks. Any other version
	// byte — including the '{' a JSON-framed build sends there — is refused
	// with ErrWireVersion and the connection dropped, so a mixed fleet
	// fails loudly instead of mis-decoding.
	wireVersion = 1

	kindRequest      = 1 // binary request
	kindResponse     = 2 // binary response
	kindRequestJSON  = 3 // JSON request (control payload attached)
	kindResponseJSON = 4 // JSON response (control payload attached)

	// envelopeSize is what length counts besides the body: version, kind
	// and correlation ID.
	envelopeSize = 1 + 1 + 8
)

// A binary body carries a field only when it is nonzero, and one flags
// byte says which:
//
//	request  u8 op | u8 flags | fields in bit order
//	item     u8 op | u8 flags | u64 key | fields in bit order
//	response u8 flags | fields in bit order
//	result   u8 flags | fields in bit order
//
// OK and Found are their flag bits. Keys, values, view hashes and trace IDs
// are fixed u64 (they are hashes: a varint would average longer), a TTL is
// a zig-zag varint, a string or batch a uvarint length or count and then
// the elements. Undefined flag bits are refused.
const (
	reqFrom = 1 << iota
	reqKey
	reqValue
	reqTTL
	reqView
	reqTrace
	reqBatch
	reqFlags = reqBatch<<1 - 1
)

const (
	itemValue = 1 << iota
	itemTTL
	itemFlags = itemTTL<<1 - 1

	// itemMinSize and resultMinSize are the fewest bytes one batch element
	// occupies — what a batch count is checked against before the slice is
	// allocated.
	itemMinSize   = 1 + 1 + 8
	resultMinSize = 1

	// itemMaxSize is the most bytes one batch item occupies: op, flags,
	// key, value and a TTL of up to 2^34 rounds (a 5-byte zig-zag varint),
	// past any lifetime a peer accepts.
	itemMaxSize = itemMinSize + 8 + 5
	// batchHeadroom is the share of a frame kept for the envelope and the
	// request's own fields: op, flags, view hash and trace ID.
	batchHeadroom = 4 << 10
)

// MaxBatchItems is the most items one OpBatch request carries: that many
// items of any content encode under maxFrameSize. A batch for one peer that
// is larger goes out as several requests. The replies are smaller still:
// each result of a query, insert or refresh item is at most its flags, a
// value or a short error.
const MaxBatchItems = (maxFrameSize - batchHeadroom) / itemMaxSize

// Response and BatchResult share the first four bits.
const (
	resOK = 1 << iota
	resFound
	resValue
	resErr
	respBatch
	resultFlags = resErr<<1 - 1
	respFlags   = respBatch<<1 - 1
)

// maxFrameSize bounds a frame (envelope and body) so a corrupt or hostile
// length prefix cannot ask for gigabytes. Responses carry at most a
// membership list; 1 MiB is three orders of magnitude above any legitimate
// frame.
const maxFrameSize = 1 << 20

var (
	// ErrWireVersion reports a frame whose version or kind byte this build
	// does not speak: the peer runs an incompatible codec.
	ErrWireVersion = errors.New("transport: incompatible wire version")
	// ErrFrame reports a frame that breaks the format: over the size
	// limit, cut short inside a field, a batch count larger than the bytes
	// present, undefined flag bits, trailing bytes, undecodable JSON. On
	// the sending side it means the frame could not be encoded and nothing
	// was written.
	ErrFrame = errors.New("transport: malformed frame")
)

// framePool recycles encode buffers. A buffer never outlives writeFrame —
// its bytes are on the socket before it goes back — so nothing a caller
// holds can alias it.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledFrame keeps the occasional membership table or stats snapshot
// from pinning its buffer in the pool.
const maxPooledFrame = 64 << 10

// writeFrame encodes f and hands it to w in ONE Write, so a frame costs one
// syscall and wakes the peer's reader once. The caller serializes writes
// to w.
func writeFrame(w io.Writer, f frame) error {
	bp := framePool.Get().(*[]byte)
	b, err := appendFrame((*bp)[:0], f)
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		*bp = b
		framePool.Put(bp)
	}
	return err
}

// appendFrame appends the encoding of f to b.
func appendFrame(b []byte, f frame) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, wireVersion, 0)
	b = binary.BigEndian.AppendUint64(b, f.ID)
	var kind byte
	var err error
	switch {
	case f.Req != nil && f.Resp == nil:
		if f.Req.Gossip == nil && f.Req.TopK == nil {
			kind, b = kindRequest, appendRequest(b, f.Req)
		} else {
			kind = kindRequestJSON
			b, err = appendJSON(b, f.Req)
		}
	case f.Resp != nil && f.Req == nil:
		if r := f.Resp; r.Gossip == nil && r.Stats == nil && r.TopK == nil && len(r.Spans) == 0 {
			kind, b = kindResponse, appendResponse(b, r)
		} else {
			kind = kindResponseJSON
			b, err = appendJSON(b, r)
		}
	default:
		err = errors.New("a frame is one request or one response")
	}
	if err != nil {
		return b[:start], fmt.Errorf("%w: encode: %w", ErrFrame, err)
	}
	n := len(b) - start - 4
	if n > maxFrameSize {
		return b[:start], fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrFrame, n, maxFrameSize)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	b[start+5] = kind
	return b, nil
}

func appendJSON(b []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	return append(b, body...), err
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendRequest(b []byte, r *Request) []byte {
	b = append(b, byte(r.Op), 0)
	at, flags := len(b)-1, byte(0)
	if r.From != "" {
		flags |= reqFrom
		b = appendString(b, r.From)
	}
	if r.Key != 0 {
		flags |= reqKey
		b = binary.BigEndian.AppendUint64(b, r.Key)
	}
	if r.Value != 0 {
		flags |= reqValue
		b = binary.BigEndian.AppendUint64(b, r.Value)
	}
	if r.TTL != 0 {
		flags |= reqTTL
		b = binary.AppendVarint(b, int64(r.TTL))
	}
	if r.ViewHash != 0 {
		flags |= reqView
		b = binary.BigEndian.AppendUint64(b, r.ViewHash)
	}
	if r.TraceID != 0 {
		flags |= reqTrace
		b = binary.BigEndian.AppendUint64(b, r.TraceID)
	}
	if len(r.Batch) > 0 {
		flags |= reqBatch
		b = binary.AppendUvarint(b, uint64(len(r.Batch)))
		for i := range r.Batch {
			b = appendItem(b, &r.Batch[i])
		}
	}
	b[at] = flags
	return b
}

func appendItem(b []byte, it *BatchItem) []byte {
	b = append(b, byte(it.Op), 0)
	at, flags := len(b)-1, byte(0)
	b = binary.BigEndian.AppendUint64(b, it.Key)
	if it.Value != 0 {
		flags |= itemValue
		b = binary.BigEndian.AppendUint64(b, it.Value)
	}
	if it.TTL != 0 {
		flags |= itemTTL
		b = binary.AppendVarint(b, int64(it.TTL))
	}
	b[at] = flags
	return b
}

func appendResponse(b []byte, r *Response) []byte {
	if len(r.Batch) == 0 {
		return appendResult(b, 0, r.OK, r.Found, r.Value, r.Err)
	}
	b = appendResult(b, respBatch, r.OK, r.Found, r.Value, r.Err)
	b = binary.AppendUvarint(b, uint64(len(r.Batch)))
	for i := range r.Batch {
		it := &r.Batch[i]
		b = appendResult(b, 0, it.OK, it.Found, it.Value, it.Err)
	}
	return b
}

// appendResult encodes the four fields Response and BatchResult share;
// flags carries the bits only the caller knows (respBatch).
func appendResult(b []byte, flags byte, ok, found bool, value uint64, errText string) []byte {
	if ok {
		flags |= resOK
	}
	if found {
		flags |= resFound
	}
	if value != 0 {
		flags |= resValue
	}
	if errText != "" {
		flags |= resErr
	}
	b = append(b, flags)
	if value != 0 {
		b = binary.BigEndian.AppendUint64(b, value)
	}
	if errText != "" {
		b = appendString(b, errText)
	}
	return b
}

// readFrame reads one frame from r. A frame that fits r's buffer is decoded
// in place from Peek — only the strings the result holds are copied out —
// and a larger one (a membership table, a stats snapshot, a wide batch)
// through a body buffer allocated after the length passed the
// maxFrameSize check.
func readFrame(r *bufio.Reader) (frame, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return frame{}, cutShort(err, len(hdr))
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrameSize {
		return frame{}, fmt.Errorf("%w: frame length %d exceeds limit %d", ErrFrame, n, maxFrameSize)
	}
	if n < envelopeSize {
		return frame{}, fmt.Errorf("%w: frame length %d is shorter than the envelope", ErrFrame, n)
	}
	if 4+n <= r.Size() {
		b, err := r.Peek(4 + n)
		if err != nil {
			return frame{}, cutShort(err, len(b))
		}
		f, err := decodeFrame(b[4:])
		r.Discard(4 + n) // cannot fail: Peek just returned these bytes
		return f, err
	}
	r.Discard(4) // cannot fail, as above
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, cutShort(err, 1)
	}
	return decodeFrame(body)
}

// cutShort maps an end of stream after got bytes of a frame onto
// io.ErrUnexpectedEOF; a stream that ends between frames stays io.EOF.
func cutShort(err error, got int) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeFrame decodes everything after the length prefix. It retains no
// reference to b.
func decodeFrame(b []byte) (frame, error) {
	if b[0] != wireVersion {
		return frame{}, fmt.Errorf("%w: frame version %d, this build speaks %d", ErrWireVersion, b[0], wireVersion)
	}
	f := frame{ID: binary.BigEndian.Uint64(b[2:])}
	d := decoder{b: b[envelopeSize:]}
	switch kind := b[1]; kind {
	case kindRequest:
		f.Req = new(Request)
		d.request(f.Req)
	case kindResponse:
		f.Resp = new(Response)
		d.response(f.Resp)
	case kindRequestJSON:
		f.Req = new(Request)
		d.json(f.Req)
	case kindResponseJSON:
		f.Resp = new(Response)
		d.json(f.Resp)
	default:
		return frame{}, fmt.Errorf("%w: unknown frame kind %d", ErrWireVersion, kind)
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return frame{}, d.err
	}
	return f, nil
}

// decoder consumes a binary body front to back. The first violation sticks
// in err and every later read returns zero, so the shape decoders below
// read straight through and the caller checks once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// take returns the next n bytes, or nil after recording that the body ends
// inside a field.
func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail("body ends inside a field")
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) ttl() int {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// flags reads a flags byte and refuses bits outside defined.
func (d *decoder) flags(defined byte) byte {
	f := d.u8()
	if f&^defined != 0 {
		d.fail("undefined flag bits %#x", f&^defined)
		return 0
	}
	return f
}

// length reads a string length or batch count and checks it against the
// bytes actually left, each element needing at least minSize of them — so
// a hostile count cannot size an allocation the frame could not fill.
func (d *decoder) length(minSize int) int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	if v > uint64(len(d.b)/minSize) {
		d.fail("count %d exceeds the %d bytes present", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	return string(d.take(d.length(1))) // the conversion copies: no alias into the read buffer
}

func (d *decoder) json(v any) {
	if err := json.Unmarshal(d.b, v); err != nil {
		d.fail("%v", err)
	}
	d.b = nil
}

func (d *decoder) request(r *Request) {
	r.Op = Op(d.u8())
	flags := d.flags(reqFlags)
	if flags&reqFrom != 0 {
		r.From = d.str()
	}
	if flags&reqKey != 0 {
		r.Key = d.u64()
	}
	if flags&reqValue != 0 {
		r.Value = d.u64()
	}
	if flags&reqTTL != 0 {
		r.TTL = d.ttl()
	}
	if flags&reqView != 0 {
		r.ViewHash = d.u64()
	}
	if flags&reqTrace != 0 {
		r.TraceID = d.u64()
	}
	if flags&reqBatch != 0 {
		if n := d.length(itemMinSize); n > 0 {
			r.Batch = make([]BatchItem, n)
		}
		for i := range r.Batch {
			it := &r.Batch[i]
			it.Op = Op(d.u8())
			flags := d.flags(itemFlags)
			it.Key = d.u64()
			if flags&itemValue != 0 {
				it.Value = d.u64()
			}
			if flags&itemTTL != 0 {
				it.TTL = d.ttl()
			}
		}
	}
}

func (d *decoder) response(r *Response) {
	flags := d.result(respFlags, &r.OK, &r.Found, &r.Value, &r.Err)
	if flags&respBatch != 0 {
		if n := d.length(resultMinSize); n > 0 {
			r.Batch = make([]BatchResult, n)
		}
		for i := range r.Batch {
			it := &r.Batch[i]
			d.result(resultFlags, &it.OK, &it.Found, &it.Value, &it.Err)
		}
	}
}

// result decodes the four fields Response and BatchResult share and returns
// the flags byte for the bits only the caller knows.
func (d *decoder) result(defined byte, ok, found *bool, value *uint64, errText *string) byte {
	flags := d.flags(defined)
	*ok = flags&resOK != 0
	*found = flags&resFound != 0
	if flags&resValue != 0 {
		*value = d.u64()
	}
	if flags&resErr != 0 {
		*errText = d.str()
	}
	return flags
}
