package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/wire"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestHandoffOfferReadsBounded: the handoff receiver reads the offer frame
// under wire.MaxFrame and checks it before it reads any record, so a
// request it refuses costs it at most that frame. Driven through
// Source.ServeHTTP with bodies that count the bytes read:
//   - an offer frame whose length prefix passes MaxFrame is refused (400)
//     having read the prefix alone;
//   - a stale-epoch offer followed by a 64 MiB Records frame is refused
//     (421) having read the offer frame alone;
//   - an offer request whose records are not exactly one install record
//     of its community is refused (400), and installs nothing, while one
//     that is installs a fenced replica (200).
func TestHandoffOfferReadsBounded(t *testing.T) {
	nodes := []service.Node{{ID: "a", Addr: "http://127.0.0.1:1"}, {ID: "b", Addr: "http://127.0.0.1:2"}}
	rt, err := service.NewRouter(service.RouterOpts{Self: "b", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, Router: rt})
	if err != nil {
		t.Fatal(err)
	}
	owner.SetJournal(src)
	post := func(body ...[]byte) (code, read int) {
		cr := &countingReader{r: bytes.NewReader(bytes.Join(body, nil))}
		w := httptest.NewRecorder()
		src.ServeHTTP(w, httptest.NewRequest(http.MethodPost, StreamPath, cr))
		return w.Code, cr.n
	}

	over := binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1)
	if code, read := post(over, make([]byte, 64)); code != http.StatusBadRequest || read != len(over) {
		t.Fatalf("an offer prefix past MaxFrame: status %d having read %d bytes, want 400 having read the %d-byte prefix", code, read, len(over))
	}

	table := rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	tableJSON, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	offer := wire.AppendHandoffOffer(nil, table.Epoch, "alpha", tableJSON, false)
	install := func(id string, st service.CommunityState) wire.RawRecord {
		data, err := persist.Encode(nil, []service.Record{{Op: service.OpInstall, ID: id, State: &st}})
		if err != nil {
			t.Fatal(err)
		}
		return wire.RawRecord{Seq: st.Seq, Data: data[0]}
	}
	alpha := seed(t, service.New(service.Opts{}), "alpha", 5).Export()
	beta := seed(t, service.New(service.Opts{}), "beta", 5).Export()
	marry, err := persist.Encode(nil, []service.Record{{Op: service.OpMarry, ID: "alpha", U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range map[string][]wire.RawRecord{
		"no record":                       nil,
		"two install records":             {install("alpha", alpha), install("alpha", alpha)},
		"a marry record":                  {{Seq: alpha.Seq + 1, Data: marry[0]}},
		"another community's install":     {install("beta", beta)},
		"an install naming another state": {install("alpha", beta)},
	} {
		code, _ := post(offer, wire.AppendRecords(nil, recs), wire.AppendHeartbeat(nil, alpha.Seq))
		if code != http.StatusBadRequest {
			t.Errorf("an offer request with %s: status %d, want 400", name, code)
		}
		if _, ok := owner.Get("alpha"); ok {
			t.Fatalf("an offer request with %s installed alpha", name)
		}
	}
	if code, _ := post(offer, wire.AppendRecords(nil, []wire.RawRecord{install("alpha", alpha)}), wire.AppendHeartbeat(nil, alpha.Seq)); code != http.StatusOK {
		t.Fatalf("an offer request with alpha's install record: status %d, want 200", code)
	}
	if c, ok := owner.Get("alpha"); !ok || !c.Fenced() || c.Seq() != alpha.Seq {
		t.Fatal("an offer request with alpha's install record left no fenced replica at its seq")
	}

	ahead := rt.Placement()
	ahead.Epoch = 10
	if ok, err := rt.SetPlacement(ahead); err != nil || !ok {
		t.Fatalf("install ahead table: %v %v", ok, err)
	}
	const big = 64 << 20
	records := binary.LittleEndian.AppendUint32(nil, big)
	records = append(records, 'H', 'W', wire.Version, byte(wire.KindRecords))
	records = binary.LittleEndian.AppendUint32(records, 1)
	records = binary.LittleEndian.AppendUint64(records, 1)
	records = binary.LittleEndian.AppendUint32(records, big-20)
	cr := &countingReader{r: io.MultiReader(bytes.NewReader(offer), bytes.NewReader(records), io.LimitReader(zeros{}, big-20))}
	w := httptest.NewRecorder()
	src.ServeHTTP(w, httptest.NewRequest(http.MethodPost, StreamPath, cr))
	if w.Code != http.StatusMisdirectedRequest || cr.n != len(offer) {
		t.Fatalf("a stale offer before a 64 MiB Records frame: status %d having read %d bytes, want 421 having read the %d-byte offer", w.Code, cr.n, len(offer))
	}
}
