package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/service"
)

// polyWALLines renders a deterministic poly-community WAL from fuzz
// parameters: a kind=poly create carrying per-edge demands, then churn
// records (marries with explicit and defaulted demands, divorces), one JSON
// object per line — exactly what the service layer journals.
func polyWALLines(t interface{ Fatal(...any) }, seed uint64, n int, ops int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x90125))
	recs := []service.Record{{
		Op: service.OpCreate, ID: "p", N: n, Kind: service.KindPoly, Code: "layering",
		Edges: [][2]int{{0, 1}}, Demands: []int64{32}, DefaultDemand: 64,
	}}
	live := map[[2]int]bool{{0, 1}: true}
	for i := 0; i < ops; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if live[k] {
			recs = append(recs, service.Record{Op: service.OpDivorce, ID: "p", U: u, V: v})
			delete(live, k)
			continue
		}
		rec := service.Record{Op: service.OpMarry, ID: "p", U: u, V: v}
		if rng.IntN(2) == 0 {
			rec.Demand = int64(8) << rng.IntN(5)
		}
		recs = append(recs, rec)
		live[k] = true
	}
	var buf bytes.Buffer
	for i, rec := range recs {
		line, err := json.Marshal(walRecord{Seq: uint64(i + 1), Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// checkPolyWAL scans a (possibly torn or corrupt) poly WAL and replays
// whatever prefix the scanner accepts. When the log was only truncated
// (mutated=false), every accepted prefix must replay without error —
// recovery's prefix-closure invariant. When a byte was flipped
// (mutated=true), the flip can hide inside a JSON string and survive the
// scanner, so replay may reject the damaged record; it must still never
// panic, and whatever state was built before the rejection must survive an
// Export → Restore round trip byte-identically, which runs the poly core's
// full Verify.
func checkPolyWAL(t *testing.T, data []byte, mutated bool) {
	dir := t.TempDir()
	path := filepath.Join(dir, "churn.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, end, err := scanFile(path)
	if err != nil {
		return // rejected as corruption; nothing to recover
	}
	if end > int64(len(data)) || (end > 0 && data[end-1] != '\n') {
		t.Fatalf("accepted prefix ends at %d of %d, not a record boundary", end, len(data))
	}
	reg := service.New(service.Opts{})
	for _, wr := range recs {
		if err := reg.Apply(wr.Seq, wr.Record); err != nil {
			if mutated {
				break // a surviving byte flip may make a record semantically invalid
			}
			t.Fatalf("replaying accepted record seq %d: %v", wr.Seq, err)
		}
	}
	c, ok := reg.Get("p")
	if !ok {
		return // the create itself was in the torn tail
	}
	st := c.Export()
	if !mutated && (st.Kind != service.KindPoly || st.Poly == nil) {
		t.Fatalf("replayed community exported kind %q (poly state %v)", st.Kind, st.Poly != nil)
	}
	reg2 := service.New(service.Opts{})
	c2, err := reg2.Restore(st)
	if err != nil {
		t.Fatalf("restoring the replayed export: %v", err)
	}
	st2 := c2.Export()
	b1, _ := json.Marshal(st)
	b2, _ := json.Marshal(st2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("export → restore → export drifted:\n%s\n%s", b1, b2)
	}
}

// FuzzPolyWAL drives poly WAL recovery with fuzzed churn histories and
// arbitrary truncation/corruption offsets.
func FuzzPolyWAL(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(12), uint16(0), false)
	f.Add(uint64(2), uint8(4), uint8(40), uint16(7), false)   // torn tail
	f.Add(uint64(3), uint8(16), uint8(64), uint16(1), true)   // corrupt byte
	f.Add(uint64(4), uint8(2), uint8(0), uint16(200), false)  // truncated create
	f.Add(uint64(5), uint8(32), uint8(200), uint16(0), false) // heavy churn
	f.Fuzz(func(t *testing.T, seed uint64, n8, ops uint8, cut uint16, corrupt bool) {
		n := int(n8)%64 + 2
		data := polyWALLines(t, seed, n, int(ops))
		if c := int(cut); c > 0 && c < len(data) {
			data = data[:len(data)-c]
		}
		if corrupt && len(data) > 0 {
			data = append([]byte(nil), data...)
			data[int(seed)%len(data)] ^= 0xff
		}
		checkPolyWAL(t, data, corrupt)
	})
}

// TestPolyWALSeeds runs the committed fuzz corpus inline, so `go test`
// (without -fuzz) exercises the recovery invariants above.
func TestPolyWALSeeds(t *testing.T) {
	for _, s := range []struct {
		seed    uint64
		n, ops  uint8
		cut     uint16
		corrupt bool
	}{
		{1, 8, 12, 0, false},
		{2, 4, 40, 7, false},
		{3, 16, 64, 1, true},
		{4, 2, 0, 200, false},
		{5, 32, 200, 0, false},
	} {
		n := int(s.n)%64 + 2
		data := polyWALLines(t, s.seed, n, int(s.ops))
		if c := int(s.cut); c > 0 && c < len(data) {
			data = data[:len(data)-c]
		}
		if s.corrupt && len(data) > 0 {
			data = append([]byte(nil), data...)
			data[int(s.seed)%len(data)] ^= 0xff
		}
		checkPolyWAL(t, data, s.corrupt)
	}
}

// polyAnswers captures the observable schedule of a poly community: the
// entities are edge slots, not families, so next-happy queries range over
// the slot count (the frozen schedule's entity count).
func polyAnswers(t *testing.T, c *service.Community) frozenAnswers {
	t.Helper()
	rows, err := c.Window(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	cp := make([]service.HolidayRow, len(rows))
	for i, r := range rows {
		cp[i] = service.HolidayRow{Holiday: r.Holiday, Happy: append([]int(nil), r.Happy...)}
	}
	sched, err := c.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	slots := sched.(*core.ClassSchedule).Nodes()
	next := make(map[int][]int64)
	for v := 0; v < slots; v++ {
		for _, from := range []int64{1, 7, 1000, 1 << 40} {
			n, err := c.NextHappy(v, from)
			if err != nil {
				t.Fatal(err)
			}
			next[v] = append(next[v], n)
		}
	}
	return frozenAnswers{Rows: cp, Next: next}
}

// TestPolyStoreRoundTrip crash-recovers a poly community through the full
// Store path (WAL replay, then snapshot + compaction) and requires the
// recovered schedule to answer byte-identically both times.
func TestPolyStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.CreateSpec(service.CreateSpec{
		ID: "p", Families: 12, Kind: service.KindPoly, Code: "bucketed",
		Edges: [][2]int{{0, 1}, {2, 3}}, Demands: []int64{16, 0}, DefaultDemand: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 11, 120)
	want := polyAnswers(t, c)
	wantExport, _ := json.Marshal(c.Export())

	// Crash (no snapshot): WAL-only recovery.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := reg.Get("p")
	if !ok {
		t.Fatal("poly community lost across WAL-only restart")
	}
	if got := polyAnswers(t, c); !reflect.DeepEqual(got, want) {
		t.Fatal("WAL-replayed poly community answers differently")
	}
	gotExport, _ := json.Marshal(c.Export())
	if !bytes.Equal(wantExport, gotExport) {
		t.Fatalf("WAL-replayed export drifted:\n%s\n%s", wantExport, gotExport)
	}

	// Snapshot, then recover from snapshot alone.
	if err := st.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, ok = reg.Get("p")
	if !ok {
		t.Fatal("poly community lost across snapshot restart")
	}
	if got := polyAnswers(t, c); !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot-restored poly community answers differently")
	}
}
