package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/service"
)

// walSeedLines renders a small realistic WAL: a create, churn, and an
// add-family record, one JSON object per line.
func walSeedLines(t interface{ Fatal(...any) }) []byte {
	var buf bytes.Buffer
	for i, rec := range []service.Record{
		{Op: service.OpCreate, ID: "c", N: 4, Edges: [][2]int{{0, 1}}, Code: "omega"},
		{Op: service.OpMarry, ID: "c", U: 2, V: 3},
		{Op: service.OpDivorce, ID: "c", U: 2, V: 3},
		{Op: service.OpAddFamily, ID: "c"},
	} {
		line, err := json.Marshal(walRecord{Seq: uint64(i + 1), Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// scanFile scans the file at path as the last segment, collecting its
// records.
func scanFile(path string) ([]walRecord, int64, error) {
	var recs []walRecord
	end, err := segment{path, 1}.scan(new(uint64), math.MaxUint64, func(seq uint64, rec service.Record) error {
		recs = append(recs, walRecord{seq, rec})
		return nil
	})
	return recs, end, err
}

// FuzzScanWAL throws arbitrary bytes at the torn-tail recovery scanner: it
// must never panic, and every accepted prefix must end on a newline
// boundary, rescan to the identical records, and carry strictly increasing
// sequences — the invariants boot-time replay relies on. The log is also
// split before a fuzzed record into two segments, the second named by that
// record's sequence: replaying the pair must equal replaying the one file,
// and a torn or out-of-range record at the end of the first segment must
// be refused.
func FuzzScanWAL(f *testing.F) {
	seed := walSeedLines(f)
	f.Add(seed, uint8(0))                      // clean log
	f.Add(seed[:len(seed)-7], uint8(2))        // torn final record
	f.Add(seed[:0], uint8(0))                  // empty file
	f.Add([]byte("{\n"), uint8(0))             // torn junk
	f.Add([]byte("not json at all"), uint8(0)) // no newline
	corrupt := append([]byte(nil), seed...)
	corrupt[5] ^= 0xff // corrupt a non-final record: must error, not truncate
	f.Add(corrupt, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		dir := t.TempDir()
		write := func(name string, data []byte) string {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		path := write("churn.wal", data)
		recs, end, err := scanFile(path)
		if err != nil {
			return // rejected as corruption; nothing to recover
		}
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("valid prefix ends at %d of %d bytes", end, len(data))
		}
		if end > 0 && data[end-1] != '\n' {
			t.Fatalf("prefix end %d is not a record boundary", end)
		}
		if end == 0 && len(recs) != 0 {
			t.Fatalf("%d records recovered from an empty prefix", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("accepted sequence regression %d → %d", recs[i-1].Seq, recs[i].Seq)
			}
		}
		// Recovery is idempotent: the accepted prefix alone must rescan to
		// the same records (what openWAL's truncate leaves on disk).
		write("churn.wal", data[:end])
		again, end2, err := scanFile(path)
		if err != nil {
			t.Fatalf("accepted prefix rejected on rescan: %v", err)
		}
		if end2 != end || len(again) != len(recs) {
			t.Fatalf("rescan of the accepted prefix: %d records to offset %d, first scan %d to %d",
				len(again), end2, len(recs), end)
		}

		if len(recs) == 0 {
			return
		}
		k := int(split) % len(recs)
		lines := bytes.SplitAfter(data[:end], []byte("\n")) // lines[i] is record i
		b := len(bytes.Join(lines[:k], nil))
		pair := []segment{
			{path: write("first", data[:b]), first: 1},
			{path: write("second", data[b:]), first: recs[k].Seq},
		}
		var got []walRecord
		if err := scanSegments(pair, func(seq uint64, rec service.Record) error {
			got = append(got, walRecord{seq, rec})
			return nil
		}); err != nil {
			t.Fatalf("split before record %d refused: %v", k, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("split before record %d replays %d records, the one file %d", k, len(got), len(recs))
		}
		for _, tail := range [][]byte{lines[k][:len(lines[k])-1], lines[k]} { // torn, then at the second's first sequence
			write("first", append(data[:b:b], tail...))
			if err := scanSegments(pair, func(uint64, service.Record) error { return nil }); err == nil {
				t.Fatalf("first segment ending in %q accepted", tail)
			}
		}
	})
}

// TestScanWALSeeds runs the seed corpus inline so `go test` (without -fuzz)
// exercises the torn-tail invariants above.
func TestScanWALSeeds(t *testing.T) {
	seed := walSeedLines(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "churn.wal")
	if err := os.WriteFile(path, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, end, err := scanFile(path)
	if err != nil || len(recs) != 4 || end != int64(len(seed)) {
		t.Fatalf("clean log: %d records to %d (%v), want 4 to %d", len(recs), end, err, len(seed))
	}
	if err := os.WriteFile(path, seed[:len(seed)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, end, err = scanFile(path)
	if err != nil || len(recs) != 3 {
		t.Fatalf("torn tail: %d records (%v), want the 3 complete ones", len(recs), err)
	}
	if seed[end-1] != '\n' {
		t.Fatalf("torn-tail end %d is not a record boundary", end)
	}
}

// FuzzOpenTail: wherever scan accepts a last segment, tail, which Open
// runs instead and which decodes only the final record, must find the
// same end of the valid prefix and the same last sequence; Load's scan
// then reports what tail leaves undecoded.
func FuzzOpenTail(f *testing.F) {
	seed := walSeedLines(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-7])                            // torn final record
	f.Add(append(seed[:len(seed):len(seed)], "[]\n"...)) // valid JSON, not a record
	f.Add(append(seed[:len(seed):len(seed)], `{"seq":9}`...))
	f.Add([]byte("{\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var last uint64
		end, err := segment{path, 1}.scan(&last, math.MaxUint64, func(uint64, service.Record) error { return nil })
		if err != nil {
			return
		}
		tend, tlast, err := segment{path, 1}.tail()
		if err != nil || tend != end || tlast != last {
			t.Fatalf("tail = (%d, %d, %v), scan = (%d, %d)", tend, tlast, err, end, last)
		}
	})
}
