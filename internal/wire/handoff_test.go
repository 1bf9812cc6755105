package wire

import (
	"strings"
	"testing"
)

// TestHandoffRoundTrip: the live-handoff offer survives encode/decode with
// every field intact, with either cut value and an empty table.
func TestHandoffRoundTrip(t *testing.T) {
	table := []byte(`{"epoch":9,"nodes":[{"id":"a"}]}`)
	buf := AppendHandoffOffer(nil, 9, "demo", table, false)
	buf = AppendHandoffOffer(buf, 0, "café", nil, true)

	f, rest, err := Split(buf)
	if err != nil {
		t.Fatalf("split offer: %v", err)
	}
	epoch, id, gotTable, cut, err := f.HandoffOffer()
	if err != nil {
		t.Fatalf("decode offer: %v", err)
	}
	if epoch != 9 || id != "demo" || string(gotTable) != string(table) || cut {
		t.Fatalf("offer round-trip: epoch=%d id=%q table=%q cut=%v", epoch, id, gotTable, cut)
	}

	f, rest, err = Split(rest)
	if err != nil {
		t.Fatalf("split empty offer: %v", err)
	}
	epoch, id, gotTable, cut, err = f.HandoffOffer()
	if err != nil {
		t.Fatalf("decode empty offer: %v", err)
	}
	if epoch != 0 || id != "café" || len(gotTable) != 0 || !cut {
		t.Fatalf("empty offer round-trip: epoch=%d id=%q table=%d bytes cut=%v", epoch, id, len(gotTable), cut)
	}

	if len(rest) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(rest))
	}
}

// TestHandoffDecodersReject: wrong kinds, truncated bodies, a cut flag
// other than 0 or 1 and trailing bytes fail loudly rather than mis-decode.
func TestHandoffDecodersReject(t *testing.T) {
	hb := mustSplitOne(t, AppendHeartbeat(nil, 7))
	if _, _, _, _, err := hb.HandoffOffer(); err == nil {
		t.Fatal("HandoffOffer decoded a heartbeat frame")
	}
	offer := mustSplitOne(t, AppendHandoffOffer(nil, 7, "demo", []byte("t"), false))
	if _, err := offer.Heartbeat(); err == nil {
		t.Fatal("Heartbeat decoded an offer frame")
	}

	for _, cut := range []bool{false, true} {
		whole := mustSplitOne(t, AppendHandoffOffer(nil, 7, "demo", []byte("table"), cut))
		// Truncations at every boundary of the offer body.
		for n := 0; n < len(whole.Body); n++ {
			f := Frame{Kind: KindHandoffOffer, Body: whole.Body[:n]}
			if _, _, _, _, err := f.HandoffOffer(); err == nil {
				t.Fatalf("offer body (cut %v) truncated to %d bytes decoded", cut, n)
			}
		}
		// Trailing garbage after the flag is a framing error, not ignorable.
		f := Frame{Kind: KindHandoffOffer, Body: append(append([]byte{}, whole.Body...), 0)}
		if _, _, _, _, err := f.HandoffOffer(); err == nil {
			t.Fatalf("offer (cut %v) with trailing bytes decoded", cut)
		}
	}
	// The flag is one byte, 0 or 1; any other value is refused.
	for _, flag := range []byte{2, 0x80, 0xFF} {
		f := mustSplitOne(t, AppendHandoffOffer(nil, 7, "demo", []byte("table"), true))
		f.Body[len(f.Body)-1] = flag
		if _, _, _, _, err := f.HandoffOffer(); err == nil || !strings.Contains(err.Error(), "cut flag") {
			t.Fatalf("offer with cut flag %#x: %v, want it refused", flag, err)
		}
	}
	// An oversized declared table length must not panic or mis-slice.
	bad := mustSplitOne(t, AppendHandoffOffer(nil, 7, "demo", []byte(strings.Repeat("x", 8)), false))
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
