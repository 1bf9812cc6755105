package benchkit

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestWithChurnFraction: the derived mix dedicates the requested fraction of
// ops to churn while preserving the source's read and churn ratios.
func TestWithChurnFraction(t *testing.T) {
	base := &Scenario{
		Name:        "wcf",
		Communities: []CommunitySpec{{ID: "a", Spec: "cycle:n=32"}},
		Mix:         OpMix{Window: 3, Next: 1, Marry: 7, Divorce: 3},
		WindowSpan:  8,
		Horizon:     1 << 16,
	}
	cases := []struct {
		frac    float64
		wantMix OpMix
	}{
		{0, OpMix{Window: 750, Next: 250}},
		{0.2, OpMix{Window: 600, Next: 200, Marry: 140, Divorce: 60}},
		{0.5, OpMix{Window: 375, Next: 125, Marry: 350, Divorce: 150}},
		{1, OpMix{Marry: 700, Divorce: 300}},
	}
	for _, tc := range cases {
		d, err := base.WithChurnFraction(tc.frac)
		if err != nil {
			t.Fatalf("frac %v: %v", tc.frac, err)
		}
		if d.Mix != tc.wantMix {
			t.Errorf("frac %v: mix %+v, want %+v", tc.frac, d.Mix, tc.wantMix)
		}
		if d.ChurnFrac != tc.frac {
			t.Errorf("frac %v: ChurnFrac recorded as %v", tc.frac, d.ChurnFrac)
		}
	}
	// A read-only source gets the default 60:40 marry:divorce split.
	ro := *base
	ro.Mix = OpMix{Window: 1, Next: 1}
	d, err := ro.WithChurnFraction(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mix != (OpMix{Window: 350, Next: 350, Marry: 180, Divorce: 120}) {
		t.Errorf("read-only source: mix %+v", d.Mix)
	}
	// The source scenario must be left untouched.
	if base.Mix != (OpMix{Window: 3, Next: 1, Marry: 7, Divorce: 3}) || base.ChurnFrac != 0 {
		t.Errorf("WithChurnFraction mutated its receiver: %+v", base)
	}
	for _, bad := range []float64{-0.1, 1.01} {
		if _, err := base.WithChurnFraction(bad); err == nil {
			t.Errorf("fraction %v accepted", bad)
		}
	}
}

// TestOpGenZipfSkew: with a positive ZipfS the head community (listed first)
// is drawn with weight 1/1^s of the harmonic-like mass, and the empirical
// frequencies match the analytic weights. ZipfS == 0 stays uniform.
func TestOpGenZipfSkew(t *testing.T) {
	const n, samples, s = 8, 400_000, 1.1
	sc := &Scenario{
		Name:       "zipf",
		Mix:        OpMix{Window: 1},
		WindowSpan: 8,
		Horizon:    1 << 16,
		ZipfS:      s,
	}
	sizes := make([]int, n)
	for i := range sizes {
		sc.Communities = append(sc.Communities, CommunitySpec{ID: string(rune('a' + i)), Spec: "cycle:n=16"})
		sizes[i] = 16
	}
	gen := NewOpGen(sc, sizes, 5)
	var counts [n]int
	for i := 0; i < samples; i++ {
		counts[gen.Next().Community]++
	}
	var norm float64
	for i := 0; i < n; i++ {
		norm += math.Pow(float64(i+1), -s)
	}
	for i := 0; i < n; i++ {
		want := math.Pow(float64(i+1), -s) / norm
		got := float64(counts[i]) / samples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("community %d: frequency %.4f, want %.4f ±0.01", i, got, want)
		}
	}
	if counts[0] <= counts[n-1]*3 {
		t.Errorf("head community drew %d vs tail %d: no visible skew", counts[0], counts[n-1])
	}

	// Determinism across generators (the zipf table must not perturb it).
	a, b := NewOpGen(sc, sizes, 9), NewOpGen(sc, sizes, 9)
	for i := 0; i < 2000; i++ {
		if opA, opB := a.Next(), b.Next(); opA != opB {
			t.Fatalf("op %d differs under equal seeds: %+v vs %+v", i, opA, opB)
		}
	}
}

// TestMegaScenarioShape: the mega family exists, is zipf-skewed toward its
// giant head communities, and carries the derived churn fraction.
func TestMegaScenarioShape(t *testing.T) {
	for _, name := range []string{"mega", "mega-ci"} {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.ZipfS <= 0 {
			t.Errorf("%s: zipf exponent %v, want > 0", name, sc.ZipfS)
		}
		if sc.ChurnFrac != megaChurnFrac {
			t.Errorf("%s: churn fraction %v, want %v", name, sc.ChurnFrac, megaChurnFrac)
		}
		if sc.Mix.Marry == 0 || sc.Mix.Divorce == 0 {
			t.Errorf("%s: churn missing from mix %+v", name, sc.Mix)
		}
		if !strings.HasPrefix(sc.Communities[0].ID, "mega-big-") {
			t.Errorf("%s: first community %q is not a giant (zipf head must be the big ones)", name, sc.Communities[0].ID)
		}
	}
}

// TestRunMegaCIBatched drives the mega-ci scenario in process with batching
// and checks the schema-2 snapshot fields: bytes_per_node from the settled
// heap delta, recolorings_per_churn_op from the driver's counters, the
// churn fraction, and the reserved "batch" per-op key.
func TestRunMegaCIBatched(t *testing.T) {
	sc, err := ScenarioByName("mega-ci")
	if err != nil {
		t.Fatal(err)
	}
	short := *sc
	short.Duration = 250 * time.Millisecond
	d := NewInProcDriver(service.New(service.Opts{}))
	snap, err := Run(&short, d, Options{Seed: 17, Workers: 2, Batch: 16, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, snap, "inproc")
	if snap.ChurnFrac != megaChurnFrac {
		t.Errorf("snapshot churn_frac %v, want %v", snap.ChurnFrac, megaChurnFrac)
	}
	if snap.Totals.BytesPerNode <= 0 {
		t.Errorf("bytes_per_node %v, want > 0 for an in-proc run", snap.Totals.BytesPerNode)
	}
	if snap.Totals.RecoloringsPerChurnOp < 0 || math.IsNaN(snap.Totals.RecoloringsPerChurnOp) {
		t.Errorf("recolorings_per_churn_op %v, want finite and >= 0", snap.Totals.RecoloringsPerChurnOp)
	}
	bat, ok := snap.PerOp["batch"]
	if !ok || bat.Count <= 0 {
		t.Fatalf("batched run did not record the \"batch\" per-op key: %+v", snap.PerOp)
	}
	// The raw batch round trip must dominate the amortized per-op p50.
	if bat.P50Micro < snap.Totals.P50Micro {
		t.Errorf("batch p50 %v below amortized per-op p50 %v", bat.P50Micro, snap.Totals.P50Micro)
	}
	// Churn must actually have flowed (the mix dedicates 20% to it) and
	// recolorings must have been observed on at least some edits.
	if snap.PerOp["marry"].Count == 0 || snap.PerOp["divorce"].Count == 0 {
		t.Errorf("mega-ci run generated no churn: %+v", snap.PerOp)
	}
}

// TestRunUnbatchedHasNoBatchKey: the reserved key only appears for Batch > 1.
func TestRunUnbatchedHasNoBatchKey(t *testing.T) {
	d := NewInProcDriver(service.New(service.Opts{}))
	snap, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.PerOp["batch"]; ok {
		t.Fatalf("unbatched run recorded a \"batch\" per-op key: %+v", snap.PerOp)
	}
	// bytes_per_node is not asserted here: the test scenario is small
	// enough that the GC-settled heap delta can round to zero.
}

// TestLoadSnapshotRefusesOtherSchemas: every committed snapshot is at
// SchemaVersion, so a snapshot of any other schema, older or newer, is
// refused rather than read with missing fields as zero.
func TestLoadSnapshotRefusesOtherSchemas(t *testing.T) {
	dir := t.TempDir()
	for _, schema := range []int{0, 4, 6} {
		s := sampleSnapshot()
		s.Schema = schema
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("BENCH_schema%d.json", schema))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("schema %d", schema)) {
			t.Errorf("schema %d snapshot: %v, want it refused", schema, err)
		}
	}
}

// TestCompareChurnFracMismatch: runs with different churn fractions are
// different workloads and must refuse to gate.
func TestCompareChurnFracMismatch(t *testing.T) {
	old, new := sampleSnapshot(), sampleSnapshot()
	old.ChurnFrac, new.ChurnFrac = 0.2, 0.5
	if cmp := Compare(old, new, 0.25); cmp.Pass || !strings.Contains(cmp.Mismatch, "churn") {
		t.Fatalf("churn-fraction mismatch should fail: %+v", cmp)
	}
}

// TestInProcDoBatchMatchesSequential: the batched in-proc path must leave
// the service in the same state as per-op application of the same stream.
func TestInProcDoBatchMatchesSequential(t *testing.T) {
	sc := &Scenario{
		Name:        "eq",
		Communities: []CommunitySpec{{ID: "a", Spec: "cycle:n=48"}, {ID: "b", Spec: "gnp:n=32,p=0.1"}},
		Mix:         OpMix{Window: 2, Next: 1, Marry: 4, Divorce: 3},
		WindowSpan:  16,
		Horizon:     1 << 16,
	}
	run := func(batch int) (*InProcDriver, []error) {
		d := NewInProcDriver(service.New(service.Opts{}))
		sizes, err := d.Setup(sc, 99)
		if err != nil {
			t.Fatal(err)
		}
		gen := NewOpGen(sc, sizes, 123)
		ops := make([]Op, 256)
		for i := range ops {
			ops[i] = gen.Next()
		}
		errs := make([]error, len(ops))
		if batch > 1 {
			for i := 0; i < len(ops); i += batch {
				j := min(i+batch, len(ops))
				if err := d.DoBatch(ops[i:j], errs[i:j]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i, op := range ops {
				errs[i] = d.Do(op)
			}
		}
		return d, errs
	}
	seq, seqErrs := run(1)
	bat, batErrs := run(16)
	for i := range seqErrs {
		if (seqErrs[i] == nil) != (batErrs[i] == nil) {
			t.Fatalf("op %d: sequential err %v vs batched err %v", i, seqErrs[i], batErrs[i])
		}
	}
	for ci := range seq.comms {
		s1, s2 := seq.comms[ci].Stats(), bat.comms[ci].Stats()
		if s1.Marriages != s2.Marriages || s1.Version != s2.Version || s1.Recolorings != s2.Recolorings {
			t.Fatalf("community %d diverged: sequential %+v vs batched %+v", ci, s1, s2)
		}
	}
	r1, err := seq.Stats()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := bat.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Recolorings != r2.Recolorings {
		t.Fatalf("recoloring counters diverged: sequential %d vs batched %d", r1.Recolorings, r2.Recolorings)
	}
}

// TestHTTPRecolorings: the HTTP driver's Stats sums the stats endpoint's
// recoloring counters across the scenario's communities.
func TestHTTPRecolorings(t *testing.T) {
	reg := service.New(service.Opts{})
	hs := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer hs.Close()
	d := NewHTTPDriver(hs.URL, 1)
	sizes, err := d.Setup(testScenario(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Recolorings < 0 {
		t.Fatalf("negative recoloring count %d", before.Recolorings)
	}
	// Enough churn to force at least one recoloring somewhere.
	gen := NewOpGen(testScenario(), sizes, 31)
	churned := 0
	for churned < 200 {
		op := gen.Next()
		if op.Kind != OpMarry && op.Kind != OpDivorce {
			continue
		}
		if err := d.Do(op); err != nil {
			t.Fatal(err)
		}
		churned++
	}
	after, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Recolorings < before.Recolorings {
		t.Fatalf("recoloring counter went backwards: %d -> %d", before.Recolorings, after.Recolorings)
	}
}
