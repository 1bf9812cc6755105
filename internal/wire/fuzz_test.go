package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/graph"
)

// seedCorpus returns well-formed frames of every kind, so the fuzzers start
// from valid encodings and mutate toward the interesting boundaries, plus
// frames of the retired kinds 10 (Snapshot) and 12 (the offer that carried
// a state) in their old layouts, which both decoders must refuse. The
// corpus only grows, so every seed's index stays its own.
func seedCorpus() [][]byte {
	const table, state = `{"epoch":9}`, `{"id":"demo"}`
	retiredSnapshot := appendHeader(nil, 10, 12+len(state))
	retiredSnapshot = binary.LittleEndian.AppendUint64(retiredSnapshot, 17)
	retiredSnapshot = binary.LittleEndian.AppendUint32(retiredSnapshot, uint32(len(state)))
	retiredSnapshot = append(retiredSnapshot, state...)
	retiredOffer := appendHeader(nil, 12, 8+2+len("demo")+4+len(table)+4+len(state))
	retiredOffer = binary.LittleEndian.AppendUint64(retiredOffer, 9)
	retiredOffer = appendID(retiredOffer, "demo")
	retiredOffer = binary.LittleEndian.AppendUint32(retiredOffer, uint32(len(table)))
	retiredOffer = append(retiredOffer, table...)
	retiredOffer = binary.LittleEndian.AppendUint32(retiredOffer, uint32(len(state)))
	retiredOffer = append(retiredOffer, state...)
	return [][]byte{
		AppendWindowReq(nil, "demo", 1, 52),
		AppendNextReq(nil, "demo", 3, 10),
		AppendNextResp(nil, 12),
		AppendError(nil, 404, 2, "no community \"x\""),
		AppendHandoffOffer(nil, 9, "demo", []byte(table), true),
		AppendRecords(nil, []RawRecord{{Seq: 1, Data: []byte(`{"op":1}`)}, {Seq: 2}}),
		retiredSnapshot,
		AppendHeartbeat(nil, 99),
		encodeWindowResp(nil, 70, 41, [][]int{{0, 3, 64}, {}, {69}}),
		encodeWindowResp(nil, 1, 1, [][]int{{0}}),
		encodeWindowResp(nil, 0, 1, nil),
		AppendChurnReq(nil, ChurnInsert, "demo", 0, 1),
		AppendChurnReq(nil, ChurnDelete, "demo", 5, 2),
		AppendChurnResp(nil, true, true),
		// Two frames back to back: the batch shape the endpoints consume.
		AppendWindowReq(AppendWindowReq(nil, "a", 1, 2), "b", 3, 4),
		// A churn batch touching two communities: the grouping shape the
		// /v1/bin/churn endpoint consumes.
		AppendChurnReq(AppendChurnReq(AppendChurnReq(nil, ChurnInsert, "a", 0, 1), ChurnInsert, "b", 2, 3), ChurnDelete, "a", 0, 1),
		retiredOffer,
	}
}

// FuzzSplit: decoding arbitrary bytes as a frame stream must never panic,
// never loop, and every successfully split frame must survive its per-kind
// decoder without panicking or reading out of bounds. Accepted window
// responses must re-encode to the identical bytes (canonical round trip).
func FuzzSplit(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for frames := 0; len(rest) > 0 && frames < 1024; frames++ {
			fr, r, err := Split(rest)
			if err != nil {
				return
			}
			if len(r) >= len(rest) {
				t.Fatalf("Split did not consume input: %d → %d bytes", len(rest), len(r))
			}
			consumed := rest[:len(rest)-len(r)]
			switch fr.Kind {
			case KindWindowReq:
				if id, from, to, err := fr.WindowReq(); err == nil {
					if got := AppendWindowReq(nil, id, from, to); !bytes.Equal(got, consumed) {
						t.Fatalf("window request did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindNextReq:
				if id, v, from, err := fr.NextReq(); err == nil {
					if got := AppendNextReq(nil, id, v, from); !bytes.Equal(got, consumed) {
						t.Fatalf("next request did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindNextResp:
				if next, err := fr.NextResp(); err == nil {
					if got := AppendNextResp(nil, next); !bytes.Equal(got, consumed) {
						t.Fatalf("next response did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindError:
				_, _, _, _ = fr.ErrorResp()
			case KindHandoffOffer:
				if epoch, id, table, cut, err := fr.HandoffOffer(); err == nil {
					if got := AppendHandoffOffer(nil, epoch, id, table, cut); !bytes.Equal(got, consumed) {
						t.Fatalf("handoff offer did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindRecords:
				if recs, err := fr.Records(nil); err == nil {
					if got := AppendRecords(nil, recs); !bytes.Equal(got, consumed) {
						t.Fatalf("records did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindHeartbeat:
				if seq, err := fr.Heartbeat(); err == nil {
					if got := AppendHeartbeat(nil, seq); !bytes.Equal(got, consumed) {
						t.Fatalf("heartbeat did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindChurnReq:
				if op, id, u, v, err := fr.ChurnReq(); err == nil {
					if got := AppendChurnReq(nil, op, id, u, v); !bytes.Equal(got, consumed) {
						t.Fatalf("churn request did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindChurnResp:
				if applied, recolored, err := fr.ChurnResp(); err == nil {
					if got := AppendChurnResp(nil, applied, recolored); !bytes.Equal(got, consumed) {
						t.Fatalf("churn response did not round trip:\n got %x\nwant %x", got, consumed)
					}
				}
			case KindWindowResp:
				wr, err := fr.WindowResp()
				if err != nil {
					break
				}
				// Decode every row both ways; indices must stay in [0, N).
				var happy []int
				var bm graph.Bitset
				for i := 0; i < wr.Rows; i++ {
					happy = wr.AppendHappy(happy[:0], i)
					for _, v := range happy {
						if v < 0 || v >= wr.N {
							t.Fatalf("row %d decoded family %d outside [0,%d)", i, v, wr.N)
						}
					}
					bm = wr.AppendBitmap(bm[:0], i)
					if bm.Count() != len(happy) {
						t.Fatalf("row %d: bitmap has %d bits, happy decode %d", i, bm.Count(), len(happy))
					}
				}
			}
			rest = r
		}
	})
}

// FuzzReadFrame: the stream reader decodes the stream route's untrusted
// bytes, a handoff POST from any client among them. Reading arbitrary bytes
// must never panic; every frame Split accepts, ReadFrame returns with the
// same kind and body, and in an input under MaxFrame, what Split refuses
// ReadFrame refuses too; and the buffer it hands back never holds more
// than MaxFrame beyond twice the bytes supplied.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for rest := data; len(rest) > 0; {
			fr, b, err := ReadFrame(r, buf, MaxStreamFrame)
			if cap(b) > MaxFrame+2*len(data) {
				t.Fatalf("ReadFrame holds %d bytes of a %d-byte input", cap(b), len(data))
			}
			want, next, serr := Split(rest)
			if serr != nil {
				if err == nil && len(data) < MaxFrame {
					t.Fatalf("ReadFrame accepted a %v frame Split refuses: %v", fr.Kind, serr)
				}
				return
			}
			if err != nil || fr.Kind != want.Kind || !bytes.Equal(fr.Body, want.Body) {
				t.Fatalf("ReadFrame = %v %x (%v), Split = %v %x", fr.Kind, fr.Body, err, want.Kind, want.Body)
			}
			buf, rest = b, next
		}
	})
}

// FuzzWindowRespRoundTrip drives the encoder with fuzzed parameters and
// requires exact decode: every bit set on the way in comes back, in order,
// at the right holiday.
func FuzzWindowRespRoundTrip(f *testing.F) {
	f.Add(uint16(70), int64(41), uint8(3), uint64(0x8000000000000009))
	f.Add(uint16(1), int64(1), uint8(1), uint64(1))
	f.Add(uint16(64), int64(1<<40), uint8(7), uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, n16 uint16, from int64, rows8 uint8, pattern uint64) {
		n := int(n16)%512 + 1
		rows := int(rows8)%16 + 1
		want := make([][]int, rows)
		row := graph.NewBitset(n)
		buf := AppendWindowRespHeader(nil, n, from, rows)
		for i := 0; i < rows; i++ {
			row.Reset()
			for v := 0; v < n; v++ {
				if pattern>>(uint(v+i)%64)&1 == 1 {
					row.Set(v)
					want[i] = append(want[i], v)
				}
			}
			buf = row.AppendBytes(buf)
		}
		fr, rest, err := Split(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("Split of a fresh encoding failed: %v (%d rest)", err, len(rest))
		}
		wr, err := fr.WindowResp()
		if err != nil {
			t.Fatal(err)
		}
		if wr.N != n || wr.From != from || wr.Rows != rows {
			t.Fatalf("header %+v, want n=%d from=%d rows=%d", wr, n, from, rows)
		}
		var happy []int
		for i := 0; i < rows; i++ {
			happy = wr.AppendHappy(happy[:0], i)
			if len(happy) != len(want[i]) {
				t.Fatalf("row %d decoded %d families, want %d", i, len(happy), len(want[i]))
			}
			for j := range happy {
				if happy[j] != want[i][j] {
					t.Fatalf("row %d decoded %v, want %v", i, happy, want[i])
				}
			}
		}
	})
}
