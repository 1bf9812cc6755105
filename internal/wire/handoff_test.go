package wire

import (
	"strings"
	"testing"
)

// TestHandoffRoundTrip: the live-handoff offer survives encode/decode with
// every field intact, including empty table/state payloads.
func TestHandoffRoundTrip(t *testing.T) {
	table := []byte(`{"epoch":9,"nodes":[{"id":"a"}]}`)
	state := []byte(`{"id":"demo","seq":41}`)
	buf := AppendHandoffOffer(nil, 9, "demo", table, state)
	buf = AppendHandoffOffer(buf, 0, "café", nil, nil)

	f, rest, err := Split(buf)
	if err != nil {
		t.Fatalf("split offer: %v", err)
	}
	epoch, id, gotTable, gotState, err := f.HandoffOffer()
	if err != nil {
		t.Fatalf("decode offer: %v", err)
	}
	if epoch != 9 || id != "demo" || string(gotTable) != string(table) || string(gotState) != string(state) {
		t.Fatalf("offer round-trip: epoch=%d id=%q table=%q state=%q", epoch, id, gotTable, gotState)
	}

	f, rest, err = Split(rest)
	if err != nil {
		t.Fatalf("split empty offer: %v", err)
	}
	epoch, id, gotTable, gotState, err = f.HandoffOffer()
	if err != nil {
		t.Fatalf("decode empty offer: %v", err)
	}
	if epoch != 0 || id != "café" || len(gotTable) != 0 || len(gotState) != 0 {
		t.Fatalf("empty offer round-trip: epoch=%d id=%q table=%d state=%d bytes", epoch, id, len(gotTable), len(gotState))
	}

	if len(rest) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(rest))
	}
}

// TestHandoffDecodersReject: wrong kinds and truncated bodies fail loudly
// rather than mis-decode.
func TestHandoffDecodersReject(t *testing.T) {
	hb := mustSplitOne(t, AppendHeartbeat(nil, 7))
	if _, _, _, _, err := hb.HandoffOffer(); err == nil {
		t.Fatal("HandoffOffer decoded a heartbeat frame")
	}
	offer := mustSplitOne(t, AppendHandoffOffer(nil, 7, "demo", []byte("t"), []byte("s")))
	if _, err := offer.Heartbeat(); err == nil {
		t.Fatal("Heartbeat decoded an offer frame")
	}

	// Truncations at every boundary of the offer body.
	full := AppendHandoffOffer(nil, 7, "demo", []byte("table"), []byte("state"))
	whole := mustSplitOne(t, full)
	for cut := 0; cut < len(whole.Body); cut++ {
		f := Frame{Kind: KindHandoffOffer, Body: whole.Body[:cut]}
		if _, _, _, _, err := f.HandoffOffer(); err == nil {
			t.Fatalf("offer body truncated to %d bytes decoded", cut)
		}
	}
	// Trailing garbage after the state is a framing error, not ignorable.
	f := Frame{Kind: KindHandoffOffer, Body: append(append([]byte{}, whole.Body...), 0)}
	if _, _, _, _, err := f.HandoffOffer(); err == nil {
		t.Fatal("offer with trailing bytes decoded")
	}
	// An oversized declared table length must not panic or mis-slice.
	bad := mustSplitOne(t, AppendHandoffOffer(nil, 7, "demo", []byte(strings.Repeat("x", 8)), nil))
	bad.Body[8+2+4+1] = 0xFF // inflate the table length field
	if _, _, _, _, err := bad.HandoffOffer(); err == nil {
		t.Fatal("offer with an inflated table length decoded")
	}
}

func mustSplitOne(t *testing.T, buf []byte) Frame {
	t.Helper()
	f, rest, err := Split(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("split: %v (%d rest)", err, len(rest))
	}
	return f
}
