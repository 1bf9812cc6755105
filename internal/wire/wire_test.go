package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

// encodeWindowResp builds a complete window-response frame from []int rows,
// the shape the serving layer emits from packed schedules.
func encodeWindowResp(dst []byte, n int, from int64, rows [][]int) []byte {
	dst = AppendWindowRespHeader(dst, n, from, len(rows))
	row := graph.NewBitset(n)
	for _, happy := range rows {
		row.Reset()
		for _, v := range happy {
			row.Set(v)
		}
		dst = row.AppendBytes(dst)
	}
	return dst
}

func TestRequestRoundTrip(t *testing.T) {
	buf := AppendWindowReq(nil, "demo", 7, 58)
	buf = AppendNextReq(buf, "café", 12, 99)
	buf = AppendError(buf, 404, 2, "no community")
	buf = AppendNextResp(buf, 1234)

	f, rest, err := Split(buf)
	if err != nil {
		t.Fatal(err)
	}
	id, from, to, err := f.WindowReq()
	if err != nil || id != "demo" || from != 7 || to != 58 {
		t.Fatalf("WindowReq = %q %d %d (%v)", id, from, to, err)
	}
	f, rest, err = Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	id, v, from, err := f.NextReq()
	if err != nil || id != "café" || v != 12 || from != 99 {
		t.Fatalf("NextReq = %q %d %d (%v)", id, v, from, err)
	}
	f, rest, err = Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	status, code, msg, err := f.ErrorResp()
	if err != nil || status != 404 || code != 2 || msg != "no community" {
		t.Fatalf("ErrorResp = %d %d %q (%v)", status, code, msg, err)
	}
	f, rest, err = Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	next, err := f.NextResp()
	if err != nil || next != 1234 {
		t.Fatalf("NextResp = %d (%v)", next, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
}

func TestWindowRespRoundTrip(t *testing.T) {
	rows := [][]int{{0, 3, 64}, {}, {69}, {1, 2, 3, 68, 69}}
	buf := encodeWindowResp(nil, 70, 41, rows)
	f, rest, err := Split(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("Split: %v (rest %d)", err, len(rest))
	}
	wr, err := f.WindowResp()
	if err != nil {
		t.Fatal(err)
	}
	if wr.N != 70 || wr.From != 41 || wr.Rows != len(rows) {
		t.Fatalf("WindowResp header = %+v", wr)
	}
	var happy []int
	var bm graph.Bitset
	for i, want := range rows {
		if wr.Holiday(i) != 41+int64(i) {
			t.Fatalf("Holiday(%d) = %d", i, wr.Holiday(i))
		}
		happy = wr.AppendHappy(happy[:0], i)
		if len(want) == 0 {
			if len(happy) != 0 {
				t.Fatalf("row %d decoded %v, want empty", i, happy)
			}
		} else if !reflect.DeepEqual(happy, want) {
			t.Fatalf("row %d decoded %v, want %v", i, happy, want)
		}
		bm = wr.AppendBitmap(bm[:0], i)
		for _, v := range want {
			if !bm.Test(v) {
				t.Fatalf("row %d bitmap missing %d", i, v)
			}
		}
		if bm.Count() != len(want) {
			t.Fatalf("row %d bitmap has %d bits, want %d", i, bm.Count(), len(want))
		}
	}
}

// TestWindowRespRows: WindowRespRows is the exact frame-size boundary — a
// window response of that many rows fits MaxFrame and one more row does
// not — and MaxWindow's 4096 holidays fit only up to 32,704 families.
func TestWindowRespRows(t *testing.T) {
	payload := func(n, rows int) int {
		return len(AppendWindowRespHeader(nil, n, 1, rows)) - 4 + rows*Words(n)*8
	}
	for _, n := range []int{1, 64, 65, 32_704, 32_705, 40_000, 500_000} {
		rows := WindowRespRows(n)
		if payload(n, rows) > MaxFrame || payload(n, rows+1) <= MaxFrame {
			t.Errorf("n=%d: %d rows take %d bytes, %d rows %d; MaxFrame is %d",
				n, rows, payload(n, rows), rows+1, payload(n, rows+1), MaxFrame)
		}
	}
	if WindowRespRows(32_704) < 4096 || WindowRespRows(32_705) >= 4096 {
		t.Errorf("4096 holidays fit at n=32704: %d rows, at n=32705: %d rows", WindowRespRows(32_704), WindowRespRows(32_705))
	}
	if got := WindowRespRows(500_000); got != 268 {
		t.Errorf("WindowRespRows(500000) = %d, want 268", got)
	}
}

// TestWindowRespStrayBitsMasked: a response whose last row word carries bits
// beyond family n-1 (hostile or corrupt input — the encoder never sets them)
// must decode as if they were absent.
func TestWindowRespStrayBitsMasked(t *testing.T) {
	buf := encodeWindowResp(nil, 70, 1, [][]int{{69}})
	// Set the two bytes above bit 69 in the final word of the single row.
	buf[len(buf)-1] = 0xff
	f, _, err := Split(buf)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := f.WindowResp()
	if err != nil {
		t.Fatal(err)
	}
	if got := wr.AppendHappy(nil, 0); !reflect.DeepEqual(got, []int{69}) {
		t.Fatalf("stray high bits leaked into the happy set: %v", got)
	}
	if bm := wr.AppendBitmap(nil, 0); bm.Count() != 1 || !bm.Test(69) {
		t.Fatalf("stray high bits leaked into the bitmap: %x", bm)
	}
}

func TestChurnRoundTrip(t *testing.T) {
	buf := AppendChurnReq(nil, ChurnInsert, "demo", 3, 9)
	buf = AppendChurnReq(buf, ChurnDelete, "café", 0, 1<<30)
	buf = AppendChurnResp(buf, true, false)
	buf = AppendChurnResp(buf, true, true)
	buf = AppendChurnResp(buf, false, false)

	f, rest, err := Split(buf)
	if err != nil {
		t.Fatal(err)
	}
	op, id, u, v, err := f.ChurnReq()
	if err != nil || op != ChurnInsert || id != "demo" || u != 3 || v != 9 {
		t.Fatalf("ChurnReq = %d %q %d %d (%v)", op, id, u, v, err)
	}
	f, rest, err = Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	op, id, u, v, err = f.ChurnReq()
	if err != nil || op != ChurnDelete || id != "café" || u != 0 || v != 1<<30 {
		t.Fatalf("ChurnReq = %d %q %d %d (%v)", op, id, u, v, err)
	}
	for _, want := range [][2]bool{{true, false}, {true, true}, {false, false}} {
		f, rest, err = Split(rest)
		if err != nil {
			t.Fatal(err)
		}
		applied, recolored, err := f.ChurnResp()
		if err != nil || applied != want[0] || recolored != want[1] {
			t.Fatalf("ChurnResp = %v %v (%v), want %v", applied, recolored, err, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
}

// TestChurnDecodersReject: malformed churn bodies and wrong kinds must fail
// with errors naming the problem.
func TestChurnDecodersReject(t *testing.T) {
	req, _, _ := Split(AppendChurnReq(nil, ChurnInsert, "c", 0, 1))
	resp, _, _ := Split(AppendChurnResp(nil, true, true))
	if _, _, _, _, err := resp.ChurnReq(); err == nil {
		t.Fatal("ChurnReq decoded a churn response")
	}
	if _, _, err := req.ChurnResp(); err == nil {
		t.Fatal("ChurnResp decoded a churn request")
	}
	// Unknown op byte: offset 4(len)+4(header) is the op.
	if f, _, err := Split(mutate(AppendChurnReq(nil, ChurnInsert, "c", 0, 1), 8, 7)); err != nil {
		t.Fatal(err)
	} else if _, _, _, _, err := f.ChurnReq(); err == nil || !strings.Contains(err.Error(), "unknown churn op") {
		t.Fatalf("ChurnReq accepted op 7: %v", err)
	}
	// Id length pointing past the body: idLen u16 follows the op byte.
	if f, _, err := Split(mutate(AppendChurnReq(nil, ChurnInsert, "c", 0, 1), 9, 200)); err != nil {
		t.Fatal(err)
	} else if _, _, _, _, err := f.ChurnReq(); err == nil {
		t.Fatal("ChurnReq accepted an id length past the body")
	}
	// Flags with unknown bits set: offset 8 is the flags byte.
	if f, _, err := Split(mutate(AppendChurnResp(nil, false, false), 8, 0x80)); err != nil {
		t.Fatal(err)
	} else if _, _, err := f.ChurnResp(); err == nil || !strings.Contains(err.Error(), "unknown bits") {
		t.Fatalf("ChurnResp accepted stray flag bits: %v", err)
	}
}

// TestSplitRejects enumerates the framing violations Split must catch, each
// with an error message naming the problem.
func TestSplitRejects(t *testing.T) {
	good := AppendNextResp(nil, 7)
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":          {nil, "too short"},
		"short":          {good[:6], "too short"},
		"truncated":      {good[:len(good)-2], "truncated"},
		"bad magic":      {mutate(good, 4, 'X'), "bad magic"},
		"bad version":    {mutate(good, 6, 99), "version"},
		"unknown kind":   {mutate(good, 7, 42), "unknown frame kind"},
		"zero kind":      {mutate(good, 7, 0), "unknown frame kind"},
		"tiny payload":   {mutate(good, 0, 2), "shorter than its header"},
		"huge payload":   {mutate(mutate(mutate(mutate(good, 0, 0xff), 1, 0xff), 2, 0xff), 3, 0xff), "exceeds MaxFrame"},
		"inflated bytes": {mutate(good, 0, byte(len(good))), "truncated"},
	}
	for name, tc := range cases {
		_, _, err := Split(tc.data)
		if err == nil {
			t.Fatalf("%s: Split accepted %x", name, tc.data)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// mutate returns a copy of b with b[i] = v.
func mutate(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	return c
}

// TestBodyDecodersReject: per-kind decoders must reject wrong kinds and
// malformed bodies.
func TestBodyDecodersReject(t *testing.T) {
	winReq, _, _ := Split(AppendWindowReq(nil, "c", 1, 2))
	nextReq, _, _ := Split(AppendNextReq(nil, "c", 0, 1))
	if _, _, _, err := winReq.NextReq(); err == nil {
		t.Fatal("NextReq decoded a window request")
	}
	if _, _, _, err := nextReq.WindowReq(); err == nil {
		t.Fatal("WindowReq decoded a next request")
	}
	if _, err := winReq.WindowResp(); err == nil {
		t.Fatal("WindowResp decoded a window request")
	}
	// A window response whose rows field disagrees with the row payload:
	// the frame is well-framed, the body internally inconsistent.
	lying := encodeWindowResp(nil, 70, 1, [][]int{{1}, {2}})
	lying[20]++ // rows u32 lives at offset 4(len)+4(header)+4(n)+8(from)
	f, _, err := Split(lying)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = f.WindowResp(); err == nil {
		t.Fatal("WindowResp accepted a rows count disagreeing with the payload")
	}
	// An id length pointing past the declared body.
	bad := AppendWindowReq(nil, "abcdef", 1, 2)
	bad[8] += 24 // id length u16 lives right after the header; 30 > the 22 body bytes left
	if f, _, err = Split(bad); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err = f.WindowReq(); err == nil {
		t.Fatal("WindowReq accepted an id length past the body")
	}
}

// TestAppendErrorTruncates: over-long messages are capped, not torn.
func TestAppendErrorTruncates(t *testing.T) {
	long := strings.Repeat("x", 4*maxErrMsg)
	f, rest, err := Split(AppendError(nil, 500, 5, long))
	if err != nil || len(rest) != 0 {
		t.Fatalf("Split: %v", err)
	}
	status, code, msg, err := f.ErrorResp()
	if err != nil || status != 500 || code != 5 || len(msg) != maxErrMsg {
		t.Fatalf("ErrorResp = %d %d, %d bytes (%v)", status, code, len(msg), err)
	}
}

// TestReplicationRoundTrip covers the replication stream kinds (9 and 11)
// both through Split and through the streaming ReadFrame reader.
func TestReplicationRoundTrip(t *testing.T) {
	recs := []RawRecord{
		{Seq: 1, Data: []byte(`{"op":"marry"}`)},
		{Seq: 2, Data: nil},
		{Seq: 9, Data: []byte(`{"op":"divorce","u":3}`)},
	}
	buf := AppendRecords(nil, recs)
	buf = AppendHeartbeat(buf, 99)

	f, rest, err := Split(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Records(nil)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("Records decoded %d records (%v), want %d", len(got), err, len(recs))
	}
	for i, r := range recs {
		if got[i].Seq != r.Seq || string(got[i].Data) != string(r.Data) {
			t.Fatalf("record %d = %d %q, want %d %q", i, got[i].Seq, got[i].Data, r.Seq, r.Data)
		}
	}
	f, rest, err = Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := f.Heartbeat()
	if err != nil || seq != 99 {
		t.Fatalf("Heartbeat = %d (%v)", seq, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}

	// The same stream through the io.Reader path, reusing one buffer.
	r := strings.NewReader(string(buf))
	var rb []byte
	var kinds []Kind
	for {
		var fr Frame
		fr, rb, err = ReadFrame(r, rb, MaxStreamFrame)
		if err != nil {
			break
		}
		kinds = append(kinds, fr.Kind)
	}
	want := []Kind{KindRecords, KindHeartbeat}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("ReadFrame saw kinds %v, want %v", kinds, want)
	}
}

// TestReplicationDecodersReject: malformed replication bodies must fail with
// errors naming the problem, and wrong kinds must be refused.
func TestReplicationDecodersReject(t *testing.T) {
	hb, _, _ := Split(AppendHeartbeat(nil, 1))
	if _, err := hb.Records(nil); err == nil {
		t.Fatal("Records decoded a heartbeat")
	}
	// A records frame whose count exceeds the records present: count u32
	// lives at offset 4(len)+4(header).
	lying := AppendRecords(nil, []RawRecord{{Seq: 1, Data: []byte("x")}})
	if f, _, err := Split(mutate(lying, 8, 2)); err != nil {
		t.Fatal(err)
	} else if _, err := f.Records(nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Records accepted a lying count: %v", err)
	}
	// A record whose declared length runs past the body: the first record's
	// len u32 follows count(4)+seq(8) at offset 8+4+8.
	if f, _, err := Split(mutate(lying, 20, 200)); err != nil {
		t.Fatal(err)
	} else if _, err := f.Records(nil); err == nil {
		t.Fatal("Records accepted a record length past the body")
	}
}

// TestRetiredKindsRefused: kinds 8 (Subscribe), 10 (Snapshot), 12 (the
// offer that carried a state) and 13 (HandoffAck) are retired, and both
// decoders refuse a frame of any of them as unknown, whatever its body.
func TestRetiredKindsRefused(t *testing.T) {
	for _, k := range []Kind{8, 10, 12, 13} {
		frame := binary.LittleEndian.AppendUint64(appendHeader(nil, k, 8), 42)
		if _, _, err := Split(frame); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Errorf("Split of a kind %d frame: %v, want an unknown kind", k, err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(frame), nil, MaxStreamFrame); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Errorf("ReadFrame of a kind %d frame: %v, want an unknown kind", k, err)
		}
		if got := k.String(); got != fmt.Sprintf("kind(%d)", k) {
			t.Errorf("kind %d is named %q", k, got)
		}
	}
}

// TestReadFrameRejects: the streaming reader must enforce the same framing
// rules as Split and surface clean EOF at a frame boundary.
func TestReadFrameRejects(t *testing.T) {
	good := AppendHeartbeat(nil, 7)
	if _, _, err := ReadFrame(strings.NewReader(""), nil, MaxStreamFrame); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, _, err := ReadFrame(strings.NewReader(string(good[:6])), nil, MaxStreamFrame); err == nil {
		t.Fatal("ReadFrame accepted a truncated frame")
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"bad magic":    {mutate(good, 4, 'X'), "bad magic"},
		"bad version":  {mutate(good, 6, 99), "version"},
		"unknown kind": {mutate(good, 7, 42), "unknown frame kind"},
		"tiny payload": {mutate(good, 0, 2), "shorter than its header"},
		"huge payload": {mutate(mutate(mutate(mutate(good, 0, 0xff), 1, 0xff), 2, 0xff), 3, 0xff), fmt.Sprintf("exceeds the reader's limit %d", MaxStreamFrame)},
	} {
		_, _, err := ReadFrame(strings.NewReader(string(tc.data)), nil, MaxStreamFrame)
		if err == nil {
			t.Fatalf("%s: ReadFrame accepted %x", name, tc.data)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestReadFrameCommitsAsBytesArrive: a stream frame may declare up to
// MaxStreamFrame, but the reader commits memory only as the payload
// arrives. A prefix declaring the bound, followed by 1 KiB and EOF, fails
// as truncated having allocated no more than MaxFrame beyond twice what
// arrived, and a prefix past the bound, or past a caller's smaller limit,
// is refused before any body byte is read.
func TestReadFrameCommitsAsBytesArrive(t *testing.T) {
	const sent = 1 << 10
	stream := binary.LittleEndian.AppendUint32(nil, MaxStreamFrame)
	stream = append(append(stream, magic0, magic1, Version, byte(KindRecords)), make([]byte, sent-headerLen)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, buf, err := ReadFrame(bytes.NewReader(stream), nil, MaxStreamFrame)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("a frame declaring MaxStreamFrame cut short after %d bytes: %v, want a truncation error", sent, err)
	}
	if limit := MaxFrame + 2*sent; cap(buf) > limit {
		t.Fatalf("buffer left holds %d bytes after %d arrived, want at most %d", cap(buf), sent, limit)
	}
	// The error's own allocations are small; the slack covers them.
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(MaxFrame+2*sent+64<<10); grew > limit {
		t.Fatalf("reading %d bytes of a frame allocated %d bytes, want at most %d", sent, grew, limit)
	}

	over := binary.LittleEndian.AppendUint32(nil, MaxStreamFrame+1)
	r := bytes.NewReader(append(over, make([]byte, 64)...))
	if _, _, err := ReadFrame(r, nil, MaxStreamFrame); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds the reader's limit %d", MaxStreamFrame)) {
		t.Fatalf("a prefix past MaxStreamFrame: %v, want it refused", err)
	}
	if r.Len() != 64 {
		t.Fatalf("refusing a prefix past MaxStreamFrame read %d body bytes, want none", 64-r.Len())
	}
	// A caller's smaller limit, such as MaxFrame for a handoff's offer, is
	// enforced the same way.
	over = binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	r = bytes.NewReader(append(over, make([]byte, 64)...))
	if _, _, err := ReadFrame(r, nil, MaxFrame); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds the reader's limit %d", MaxFrame)) {
		t.Fatalf("a prefix past MaxFrame read under MaxFrame: %v, want it refused", err)
	}
	if r.Len() != 64 {
		t.Fatalf("refusing a prefix past MaxFrame read %d body bytes, want none", 64-r.Len())
	}
}

// TestReadFrameReleasesLargeFrames: a 20 MiB records frame, past MaxFrame,
// reads whole, and the buffer handed back after it and a heartbeat is no
// larger than MaxFrame: a stream does not pin the largest frame it read.
func TestReadFrameReleasesLargeFrames(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 20<<20/16)
	stream := AppendHeartbeat(AppendRecords(nil, []RawRecord{{Seq: 7, Data: data}}), 7)
	r := bytes.NewReader(stream)
	f, buf, err := ReadFrame(r, make([]byte, 0, 64), MaxStreamFrame)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Records(nil)
	if err != nil || len(recs) != 1 || recs[0].Seq != 7 || !bytes.Equal(recs[0].Data, data) {
		t.Fatalf("the 20 MiB frame decoded to %d records (%v), want its one record intact", len(recs), err)
	}
	if f, buf, err = ReadFrame(r, buf, MaxStreamFrame); err != nil || f.Kind != KindHeartbeat {
		t.Fatalf("the frame after the large one: %v (%v), want a heartbeat", f.Kind, err)
	}
	if cap(buf) > MaxFrame {
		t.Fatalf("the buffer handed back holds %d bytes after a 20 MiB frame, want at most MaxFrame", cap(buf))
	}
}

// TestRecordsFit: a records frame takes records from the first while its
// payload stays within MaxFrame, and always takes at least one.
func TestRecordsFit(t *testing.T) {
	sized := func(sizes ...int) []RawRecord {
		recs := make([]RawRecord, len(sizes))
		for i, n := range sizes {
			recs[i] = RawRecord{Seq: uint64(i + 1), Data: make([]byte, n)}
		}
		return recs
	}
	// headerLen, the count, and 12 bytes of seq and length a record.
	exact := MaxFrame - headerLen - 4 - 2*12
	cases := []struct {
		recs []RawRecord
		want int
	}{
		{nil, 0},
		{sized(10, 20, 30), 3},
		{sized(exact/2, exact-exact/2), 2},
		{sized(exact/2, exact-exact/2+1), 1},
		{sized(9<<20, 9<<20, 1), 1},
		{sized(MaxFrame, 1), 1},
	}
	for _, tc := range cases {
		if got := RecordsFit(tc.recs); got != tc.want {
			t.Errorf("RecordsFit(%d records) = %d, want %d", len(tc.recs), got, tc.want)
		}
		if n := RecordsFit(tc.recs); n > 0 && len(tc.recs[0].Data) < MaxFrame {
			if _, _, err := ReadFrame(bytes.NewReader(AppendRecords(nil, tc.recs[:n])), nil, MaxStreamFrame); err != nil {
				t.Errorf("a frame of the %d records that fit: %v", n, err)
			}
		}
	}
}
