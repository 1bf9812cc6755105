// Package wire is the length-prefixed, versioned binary wire format of the
// serving layer: window answers travel as word-packed happy bitmaps — one
// ⌈n/64⌉-word graph.Bitset row per holiday, emitted straight from the
// frozen class-indexed schedule (core.ClassSchedule.WindowBits) without
// materializing []int rows — and requests/responses are framed so a single
// HTTP body can carry a whole batch of pipelined queries.
//
// Layout (all integers little-endian; see DESIGN.md §9 for the normative
// spec):
//
//	frame   := u32 length | payload          length = len(payload) ≤ MaxFrame
//	                                          (≤ MaxStreamFrame for Records)
//	payload := 'H' 'W' | u8 version | u8 kind | body
//
//	WindowReq  (1): u16 idLen | id | i64 from | i64 to
//	WindowResp (2): u32 n | i64 from | u32 rows | rows × ⌈n/64⌉ × u64
//	NextReq    (3): u16 idLen | id | u32 family | i64 from
//	NextResp   (4): i64 next
//	Error      (5): u16 status | u16 code | u16 msgLen | msg
//	ChurnReq   (6): u8 op | u16 idLen | id | u32 u | u32 v
//	ChurnResp  (7): u8 flags (bit 0 applied, bit 1 recolored)
//	Records    (9): u32 count | count × (u64 seq | u32 len | bytes)
//	Heartbeat (11): u64 seq
//
//	HandoffOffer (14): u64 epoch | u16 idLen | id | u32 tableLen | table | u8 cut
//
// Kinds 9 and 11 are the replication stream of internal/cluster: a
// follower's GET /v1/stream?from=N on the owner's API address is answered
// with Records frames carrying WAL records (the same JSON objects WAL
// segments store, framed with their sequence numbers; in catch-up, each
// community's state first as an install record) and Heartbeat frames
// advertising the last sequence streamed to that subscriber, so an idle
// follower still learns it is caught up and that its owner is alive.
//
// Kind 14 opens each of a live handoff's two POSTs to /v1/stream on the new
// owner (DESIGN.md §12): the epoch, the community, the placement table
// being flipped to (JSON) and a cut flag. Records and a Heartbeat follow:
// in the first request (cut 0) the state as one install record, in the
// second (cut 1) the WAL tail and the cut; its 200 answer is the ack.
//
// Kinds 8 (Subscribe), 10 (Snapshot), 12 (an offer carrying a state) and
// 13 (HandoffAck) are retired: the GET's from parameter, an install record
// and the second POST's answer do their jobs. Their numbers are never
// reused, and decoders refuse them as unknown, so builds on either side of
// kind 12's retirement refuse each other's offers.
//
// A batch is frames concatenated back to back; responses correspond 1:1 and
// in order with the request frames, per-query failures arriving as Error
// frames in position. Decoding never trusts the input: every length is
// bounds-checked, row payloads must match rows·⌈n/64⌉·8 exactly, and stray
// bits beyond family n-1 in the last row word are masked off — properties
// pinned by the package's fuzz targets.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// Version is the wire-format version byte; decoders refuse anything else.
// History: 1 = PR 5 query frames; 2 adds the replication kinds (8–11) and a
// u16 error code to Error frames (the {code, message} envelope shared with
// the JSON endpoints). Retiring kinds 8, 10, 12 and 13 changed no frame
// that is still sent, so the version stayed.
const Version = 2

// MaxFrame bounds a single frame's payload, so a hostile length prefix
// cannot commit the decoder to gigabytes. It also bounds window responses:
// 4096 holidays of packed rows fit only up to 32,704 families (over 100k
// families they would take 51.2 MB), so servers refuse a window longer than
// WindowRespRows.
const MaxFrame = 16 << 20

// MaxStreamFrame bounds a frame of records on a replica stream, where one
// install record carries a whole community state and may pass MaxFrame.
// ReadFrame commits memory only as a payload's bytes arrive, so a hostile
// length prefix below it costs no more than MaxFrame beyond twice what its
// sender sent.
const MaxStreamFrame = 1 << 30

// MaxIDLen bounds community ids on the wire (the u16 length field's range).
const MaxIDLen = 1<<16 - 1

const (
	magic0, magic1 = 'H', 'W'
	prefixLen      = 4 // u32 payload length
	headerLen      = 4 // magic(2) + version + kind
)

// Kind tags a frame's payload layout.
type Kind uint8

const (
	// KindWindowReq asks for the packed window [from, to] of a community.
	KindWindowReq Kind = 1 + iota
	// KindWindowResp carries the packed bitmap rows of a window answer.
	KindWindowResp
	// KindNextReq asks for a family's next happy holiday at or after from.
	KindNextReq
	// KindNextResp carries the next-happy answer.
	KindNextResp
	// KindError carries a per-query failure (status mirrors the HTTP code
	// the JSON endpoint would have answered).
	KindError
	// KindChurnReq asks for one edge edit (marry or divorce) in a
	// community; consecutive churn requests for the same community in one
	// batch body are applied as a single amortized ChurnBatch flush.
	KindChurnReq
	// KindChurnResp reports what one churn edit did.
	KindChurnResp
	// Kind 8, Subscribe, is retired: a follower's GET names the sequence
	// it resumes from.
	_
	// KindRecords carries a batch of WAL records, each framed with its
	// sequence number (the payload bytes are the WAL segments' JSON objects).
	KindRecords
	// Kind 10, Snapshot, is retired: catch-up sends each state as an
	// install record.
	_
	// KindHeartbeat advertises the last sequence streamed to the
	// subscriber: an idle follower is caught up through it.
	KindHeartbeat
	// Kinds 12 (an offer carrying a state) and 13 (HandoffAck) are retired.
	_
	_
	// KindHandoffOffer opens each request of a live handoff: the old owner
	// of a community offers the placement table (JSON) being flipped to at
	// the named epoch, and says whether the request carries the cut.
	KindHandoffOffer
)

// Churn op bytes of a ChurnReq body. The values deliberately match
// core.EditInsert and core.EditDelete so the serving layer forwards the op
// byte without translation.
const (
	// ChurnInsert marries u and v (inserts the edge).
	ChurnInsert byte = 1
	// ChurnDelete divorces u and v (removes the edge).
	ChurnDelete byte = 2
)

// kindNames names every kind a frame may carry. The retired kinds 8, 10,
// 12 and 13 have no name, so decoders refuse them as unknown.
var kindNames = [...]string{
	KindWindowReq:    "window-request",
	KindWindowResp:   "window-response",
	KindNextReq:      "next-request",
	KindNextResp:     "next-response",
	KindError:        "error",
	KindChurnReq:     "churn-request",
	KindChurnResp:    "churn-response",
	KindRecords:      "records",
	KindHeartbeat:    "heartbeat",
	KindHandoffOffer: "handoff-offer",
}

// known reports whether a frame may carry kind k.
func (k Kind) known() bool { return int(k) < len(kindNames) && kindNames[k] != "" }

// String names the kind for error messages.
func (k Kind) String() string {
	if k.known() {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Words returns the packed words per happy-bitmap row over n families —
// the ⌈n/64⌉ of the format.
func Words(n int) int { return (n + 63) / 64 }

// appendHeader appends the length prefix and payload header of a frame
// whose body is bodyLen bytes.
func appendHeader(dst []byte, kind Kind, bodyLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+bodyLen))
	return append(dst, magic0, magic1, Version, byte(kind))
}

// appendID appends a length-prefixed community id. Ids longer than MaxIDLen
// are a programming error (the serving layer never registers them): panic
// rather than emit a torn frame.
func appendID(dst []byte, id string) []byte {
	if len(id) > MaxIDLen {
		panic(fmt.Sprintf("wire: community id of %d bytes exceeds MaxIDLen", len(id)))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(id)))
	return append(dst, id...)
}

// AppendWindowReq appends a window-request frame for community id's
// holidays [from, to].
func AppendWindowReq(dst []byte, id string, from, to int64) []byte {
	dst = appendHeader(dst, KindWindowReq, 2+len(id)+16)
	dst = appendID(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(from))
	return binary.LittleEndian.AppendUint64(dst, uint64(to))
}

// AppendNextReq appends a next-request frame for community id's family v at
// or after from.
func AppendNextReq(dst []byte, id string, v int, from int64) []byte {
	dst = appendHeader(dst, KindNextReq, 2+len(id)+12)
	dst = appendID(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	return binary.LittleEndian.AppendUint64(dst, uint64(from))
}

// AppendChurnReq appends a churn-request frame editing the marriage edge
// (u, v) of community id; op is ChurnInsert or ChurnDelete.
func AppendChurnReq(dst []byte, op byte, id string, u, v int) []byte {
	dst = appendHeader(dst, KindChurnReq, 1+2+len(id)+8)
	dst = append(dst, op)
	dst = appendID(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// AppendChurnResp appends a churn-response frame reporting whether the edit
// changed the edge set and whether it recolored anybody.
func AppendChurnResp(dst []byte, applied, recolored bool) []byte {
	dst = appendHeader(dst, KindChurnResp, 1)
	var flags byte
	if applied {
		flags |= 1
	}
	if recolored {
		flags |= 2
	}
	return append(dst, flags)
}

// AppendWindowRespHeader begins a window-response frame covering rows
// holidays over n families starting at holiday from. The caller must follow
// with exactly rows packed rows of Words(n) words each (graph.Bitset
// AppendBytes); the frame length is computed up front, so emission streams
// with no back-patching.
func AppendWindowRespHeader(dst []byte, n int, from int64, rows int) []byte {
	dst = appendHeader(dst, KindWindowResp, 16+rows*Words(n)*8)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(from))
	return binary.LittleEndian.AppendUint32(dst, uint32(rows))
}

// WindowRespRows is the most holidays one window-response frame over n
// families can carry without its payload exceeding MaxFrame.
func WindowRespRows(n int) int {
	if n == 0 {
		return math.MaxInt // zero-width rows
	}
	return (MaxFrame - headerLen - 16) / (Words(n) * 8)
}

// AppendNextResp appends a next-response frame.
func AppendNextResp(dst []byte, next int64) []byte {
	dst = appendHeader(dst, KindNextResp, 8)
	return binary.LittleEndian.AppendUint64(dst, uint64(next))
}

// maxErrMsg truncates error messages on the wire; the u16 length field
// allows more, but a query error never needs it.
const maxErrMsg = 512

// AppendError appends an error frame carrying the {code, message} envelope
// the JSON endpoints answer with: status is the HTTP-equivalent status, code
// the numeric service.ErrCode identifier (see service.ErrCode.Num).
func AppendError(dst []byte, status int, code uint16, msg string) []byte {
	if len(msg) > maxErrMsg {
		msg = msg[:maxErrMsg]
	}
	dst = appendHeader(dst, KindError, 6+len(msg))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = binary.LittleEndian.AppendUint16(dst, code)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// Frame is one decoded frame: its kind plus the raw body (a subslice of the
// decoded buffer, not a copy — valid as long as the buffer is).
type Frame struct {
	Kind Kind
	Body []byte
}

// Split decodes the first frame of b and returns the remainder, so a batch
// body is consumed by calling Split until the buffer is empty. Errors name
// what was malformed; a nil error guarantees the frame's header was valid
// and its body completely present (per-kind body layout is validated by the
// frame's decode method).
func Split(b []byte) (Frame, []byte, error) {
	if len(b) < prefixLen+headerLen {
		return Frame{}, nil, fmt.Errorf("wire: %d bytes is too short for a frame", len(b))
	}
	n, err := payloadLen(b)
	if err != nil {
		return Frame{}, nil, err
	}
	if len(b)-prefixLen < n {
		return Frame{}, nil, fmt.Errorf("wire: truncated frame: %d payload bytes present, %d declared", len(b)-prefixLen, n)
	}
	f, err := parse(b[prefixLen : prefixLen+n])
	if err != nil {
		return Frame{}, nil, err
	}
	return f, b[prefixLen+n:], nil
}

// payloadLen decodes and bounds a frame's length prefix.
func payloadLen(prefix []byte) (int, error) {
	n := binary.LittleEndian.Uint32(prefix)
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: frame payload of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	if n < headerLen {
		return 0, fmt.Errorf("wire: frame payload of %d bytes is shorter than its header", n)
	}
	return int(n), nil
}

// parse checks a whole payload's magic, version and kind.
func parse(p []byte) (Frame, error) {
	if p[0] != magic0 || p[1] != magic1 {
		return Frame{}, fmt.Errorf("wire: bad magic %q", p[:2])
	}
	if p[2] != Version {
		return Frame{}, fmt.Errorf("wire: version %d, this build speaks %d", p[2], Version)
	}
	if k := Kind(p[3]); !k.known() {
		return Frame{}, fmt.Errorf("wire: unknown frame kind %d", p[3])
	}
	return Frame{Kind: Kind(p[3]), Body: p[headerLen:]}, nil
}

// splitID consumes a length-prefixed id from the front of a body.
func splitID(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("wire: body too short for id length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b)-2 < n {
		return "", nil, fmt.Errorf("wire: id of %d bytes declared, %d present", n, len(b)-2)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// WindowReq decodes a window-request body.
func (f Frame) WindowReq() (id string, from, to int64, err error) {
	if f.Kind != KindWindowReq {
		return "", 0, 0, fmt.Errorf("wire: %s frame is not a window request", f.Kind)
	}
	id, rest, err := splitID(f.Body)
	if err != nil {
		return "", 0, 0, err
	}
	if len(rest) != 16 {
		return "", 0, 0, fmt.Errorf("wire: window request has %d trailing bytes, want 16", len(rest))
	}
	from = int64(binary.LittleEndian.Uint64(rest))
	to = int64(binary.LittleEndian.Uint64(rest[8:]))
	return id, from, to, nil
}

// NextReq decodes a next-request body.
func (f Frame) NextReq() (id string, v int, from int64, err error) {
	if f.Kind != KindNextReq {
		return "", 0, 0, fmt.Errorf("wire: %s frame is not a next request", f.Kind)
	}
	id, rest, err := splitID(f.Body)
	if err != nil {
		return "", 0, 0, err
	}
	if len(rest) != 12 {
		return "", 0, 0, fmt.Errorf("wire: next request has %d trailing bytes, want 12", len(rest))
	}
	v32 := binary.LittleEndian.Uint32(rest)
	if v32 > 1<<31-1 {
		return "", 0, 0, fmt.Errorf("wire: family id %d out of range", v32)
	}
	from = int64(binary.LittleEndian.Uint64(rest[4:]))
	return id, int(v32), from, nil
}

// ChurnReq decodes a churn-request body. The op byte is validated here —
// an unknown op never reaches the serving layer.
func (f Frame) ChurnReq() (op byte, id string, u, v int, err error) {
	if f.Kind != KindChurnReq {
		return 0, "", 0, 0, fmt.Errorf("wire: %s frame is not a churn request", f.Kind)
	}
	if len(f.Body) < 1 {
		return 0, "", 0, 0, fmt.Errorf("wire: churn request body is empty")
	}
	op = f.Body[0]
	if op != ChurnInsert && op != ChurnDelete {
		return 0, "", 0, 0, fmt.Errorf("wire: unknown churn op %d", op)
	}
	id, rest, err := splitID(f.Body[1:])
	if err != nil {
		return 0, "", 0, 0, err
	}
	if len(rest) != 8 {
		return 0, "", 0, 0, fmt.Errorf("wire: churn request has %d trailing bytes, want 8", len(rest))
	}
	u32 := binary.LittleEndian.Uint32(rest)
	v32 := binary.LittleEndian.Uint32(rest[4:])
	if u32 > 1<<31-1 || v32 > 1<<31-1 {
		return 0, "", 0, 0, fmt.Errorf("wire: family id out of range")
	}
	return op, id, int(u32), int(v32), nil
}

// ChurnResp decodes a churn-response body.
func (f Frame) ChurnResp() (applied, recolored bool, err error) {
	if f.Kind != KindChurnResp {
		return false, false, fmt.Errorf("wire: %s frame is not a churn response", f.Kind)
	}
	if len(f.Body) != 1 {
		return false, false, fmt.Errorf("wire: churn response body is %d bytes, want 1", len(f.Body))
	}
	if f.Body[0] > 3 {
		return false, false, fmt.Errorf("wire: churn response flags %#x have unknown bits set", f.Body[0])
	}
	return f.Body[0]&1 != 0, f.Body[0]&2 != 0, nil
}

// NextResp decodes a next-response body.
func (f Frame) NextResp() (int64, error) {
	if f.Kind != KindNextResp {
		return 0, fmt.Errorf("wire: %s frame is not a next response", f.Kind)
	}
	if len(f.Body) != 8 {
		return 0, fmt.Errorf("wire: next response body is %d bytes, want 8", len(f.Body))
	}
	return int64(binary.LittleEndian.Uint64(f.Body)), nil
}

// ErrorResp decodes an error body into its status, numeric code, and
// message.
func (f Frame) ErrorResp() (status int, code uint16, msg string, err error) {
	if f.Kind != KindError {
		return 0, 0, "", fmt.Errorf("wire: %s frame is not an error", f.Kind)
	}
	if len(f.Body) < 6 {
		return 0, 0, "", fmt.Errorf("wire: error body is %d bytes, want ≥ 6", len(f.Body))
	}
	n := int(binary.LittleEndian.Uint16(f.Body[4:]))
	if len(f.Body)-6 != n {
		return 0, 0, "", fmt.Errorf("wire: error message of %d bytes declared, %d present", n, len(f.Body)-6)
	}
	return int(binary.LittleEndian.Uint16(f.Body)), binary.LittleEndian.Uint16(f.Body[2:]), string(f.Body[6:]), nil
}

// WindowResp is a decoded window response: rows × Words(N) packed words
// over the frame's body (no copy). From is the first holiday; row i covers
// holiday From+i.
type WindowResp struct {
	N    int   // families covered by each row
	From int64 // first holiday of the window
	Rows int   // holidays (rows) in the response
	data []byte
}

// WindowResp validates and decodes a window-response body.
func (f Frame) WindowResp() (WindowResp, error) {
	if f.Kind != KindWindowResp {
		return WindowResp{}, fmt.Errorf("wire: %s frame is not a window response", f.Kind)
	}
	if len(f.Body) < 16 {
		return WindowResp{}, fmt.Errorf("wire: window response body is %d bytes, want ≥ 16", len(f.Body))
	}
	n := binary.LittleEndian.Uint32(f.Body)
	from := int64(binary.LittleEndian.Uint64(f.Body[4:]))
	rows := binary.LittleEndian.Uint32(f.Body[12:])
	if n > 1<<31-1 {
		return WindowResp{}, fmt.Errorf("wire: window response over %d families out of range", n)
	}
	// int64 math: n < 2^31 ⇒ words < 2^26, rows < 2^32 ⇒ the product stays
	// below 2^61, so a hostile header cannot overflow the size check.
	want := int64(rows) * int64(Words(int(n))) * 8
	if int64(len(f.Body)-16) != want {
		return WindowResp{}, fmt.Errorf("wire: window response carries %d row bytes, %d×⌈%d/64⌉ words need %d",
			len(f.Body)-16, rows, n, want)
	}
	return WindowResp{N: int(n), From: from, Rows: int(rows), data: f.Body[16:]}, nil
}

// Holiday returns the holiday index of row i.
func (wr WindowResp) Holiday(i int) int64 { return wr.From + int64(i) }

// AppendBitmap decodes row i into dst (reusing its capacity) as a
// graph.Bitset, stray bits beyond family N-1 masked off.
func (wr WindowResp) AppendBitmap(dst graph.Bitset, i int) graph.Bitset {
	rw := Words(wr.N) * 8
	dst, _ = graph.AppendBitsetBytes(dst, wr.data[i*rw:(i+1)*rw]) // row length is a multiple of 8 by construction
	if wr.N%64 != 0 && len(dst) > 0 {
		dst[len(dst)-1] &= 1<<uint(wr.N%64) - 1
	}
	return dst
}

// AppendHappy appends row i's happy families to dst in increasing order —
// the decode from packed bitmap back to the JSON []int representation.
// Stray bits beyond family N-1 are ignored.
func (wr WindowResp) AppendHappy(dst []int, i int) []int {
	words := Words(wr.N)
	off := i * words * 8
	for wi := 0; wi < words; wi++ {
		w := binary.LittleEndian.Uint64(wr.data[off+wi*8:])
		if wi == words-1 && wr.N%64 != 0 {
			w &= 1<<uint(wr.N%64) - 1
		}
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// RawRecord is one replicated WAL record: the owner-assigned sequence number
// plus the record's serialized bytes (the same JSON object a WAL segment holds).
// Decoded records reference the frame body — copy Data before the buffer is
// reused.
type RawRecord struct {
	Seq  uint64
	Data []byte
}

// RecordsFit returns how many of recs, counted from the first and at least
// one, a records frame carries within MaxFrame.
func RecordsFit(recs []RawRecord) int {
	payload := headerLen + 4
	for i, r := range recs {
		if payload += 12 + len(r.Data); payload > MaxFrame && i > 0 {
			return i
		}
	}
	return len(recs)
}

// AppendRecords appends a records frame carrying recs in order.
func AppendRecords(dst []byte, recs []RawRecord) []byte {
	body := 4
	for _, r := range recs {
		body += 12 + len(r.Data)
	}
	dst = appendHeader(dst, KindRecords, body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
		dst = append(dst, r.Data...)
	}
	return dst
}

// Records decodes a records body, appending to dst (reusing its capacity).
// The returned records' Data fields alias the frame body.
func (f Frame) Records(dst []RawRecord) ([]RawRecord, error) {
	if f.Kind != KindRecords {
		return nil, fmt.Errorf("wire: %s frame is not a records frame", f.Kind)
	}
	if len(f.Body) < 4 {
		return nil, fmt.Errorf("wire: records body is %d bytes, want ≥ 4", len(f.Body))
	}
	count := binary.LittleEndian.Uint32(f.Body)
	b := f.Body[4:]
	for i := uint32(0); i < count; i++ {
		if len(b) < 12 {
			return nil, fmt.Errorf("wire: records frame truncated at record %d of %d", i, count)
		}
		seq := binary.LittleEndian.Uint64(b)
		n := int(binary.LittleEndian.Uint32(b[8:]))
		if len(b)-12 < n {
			return nil, fmt.Errorf("wire: record %d declares %d bytes, %d present", i, n, len(b)-12)
		}
		dst = append(dst, RawRecord{Seq: seq, Data: b[12 : 12+n]})
		b = b[12+n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: records frame has %d trailing bytes", len(b))
	}
	return dst, nil
}

// AppendHeartbeat appends a heartbeat frame advertising the owner's current
// WAL sequence.
func AppendHeartbeat(dst []byte, seq uint64) []byte {
	dst = appendHeader(dst, KindHeartbeat, 8)
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// Heartbeat decodes a heartbeat body.
func (f Frame) Heartbeat() (uint64, error) {
	if f.Kind != KindHeartbeat {
		return 0, fmt.Errorf("wire: %s frame is not a heartbeat", f.Kind)
	}
	if len(f.Body) != 8 {
		return 0, fmt.Errorf("wire: heartbeat body is %d bytes, want 8", len(f.Body))
	}
	return binary.LittleEndian.Uint64(f.Body), nil
}

// AppendHandoffOffer appends a handoff-offer frame: the community being
// handed off, the serialized placement table (JSON) taking effect at epoch,
// and whether the request carries the cut (its tail) rather than the
// offered state.
func AppendHandoffOffer(dst []byte, epoch uint64, id string, table []byte, cut bool) []byte {
	dst = appendHeader(dst, KindHandoffOffer, 8+2+len(id)+4+len(table)+1)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = appendID(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(table)))
	dst = append(dst, table...)
	if cut {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// HandoffOffer decodes a handoff-offer body. The returned table aliases
// the frame body.
func (f Frame) HandoffOffer() (epoch uint64, id string, table []byte, cut bool, err error) {
	if f.Kind != KindHandoffOffer {
		return 0, "", nil, false, fmt.Errorf("wire: %s frame is not a handoff offer", f.Kind)
	}
	if len(f.Body) < 8 {
		return 0, "", nil, false, fmt.Errorf("wire: handoff offer body is %d bytes, want ≥ 8", len(f.Body))
	}
	epoch = binary.LittleEndian.Uint64(f.Body)
	id, rest, err := splitID(f.Body[8:])
	if err != nil {
		return 0, "", nil, false, err
	}
	if len(rest) < 4 {
		return 0, "", nil, false, fmt.Errorf("wire: handoff offer truncated before table length")
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if len(rest)-4-1 != n {
		return 0, "", nil, false, fmt.Errorf("wire: handoff offer declares %d table bytes and a cut flag, %d bytes present", n, len(rest)-4)
	}
	if flag := rest[4+n]; flag > 1 {
		return 0, "", nil, false, fmt.Errorf("wire: handoff offer cut flag is %d, want 0 or 1", flag)
	}
	return epoch, id, rest[4 : 4+n], rest[4+n] == 1, nil
}

// ReadFrame reads one frame from a stream, reusing buf (grown as needed) for
// the payload; the returned buffer must be passed back in on the next call,
// and the frame body aliases it. This is the replication-stream reader —
// batch HTTP bodies, which arrive fully buffered, use Split instead. A
// frame whose length prefix passes limit (MaxFrame, or MaxStreamFrame for
// records) is refused before any of its payload is read. A frame past
// MaxFrame has its payload read at most MaxFrame bytes at a time, so the
// buffer holds at most MaxFrame beyond twice the bytes read, and it gets
// a buffer of its own, not handed back, so a stream does not pin the
// largest frame it carried.
func ReadFrame(r io.Reader, buf []byte, limit int) (Frame, []byte, error) {
	var prefix [prefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Frame{}, buf, err
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	if n > limit {
		return Frame{}, buf, fmt.Errorf("wire: frame payload of %d bytes exceeds the reader's limit %d", n, limit)
	}
	p := buf[:0]
	if n > MaxFrame {
		p = nil
	} else if _, err := payloadLen(prefix[:]); err != nil {
		return Frame{}, buf, err
	}
	for len(p) < n {
		next := len(p) + min(n-len(p), MaxFrame)
		if next > cap(p) {
			p = append(make([]byte, 0, min(n, max(next, 2*len(p)))), p...)
		}
		got, err := io.ReadFull(r, p[len(p):next])
		if p = p[:len(p)+got]; err != nil {
			return Frame{}, p, fmt.Errorf("wire: truncated frame: %w", err)
		}
	}
	f, err := parse(p)
	if n > MaxFrame {
		return f, buf, err
	}
	return f, p, err
}
