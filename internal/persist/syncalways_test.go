package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestWALConcurrentSyncAlways: eight writers, each on its own community,
// append under SyncAlways, whose fsyncs run outside the append mutex and
// overlap, while a SaveSnapshot and then Close run. Close waits out every
// fsync in flight, so each write either was acknowledged or never reached
// the log. A reopen replays every acknowledged write, and the sequences
// run from 1 with no gap: the snapshot's up to its cutoff, the segments'
// from there.
func TestWALConcurrentSyncAlways(t *testing.T) {
	const writers = 8
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]uint64, writers) // per writer: its create's seq, then every acknowledged write's
	comms := make([]*service.Community, writers)
	for i := range comms {
		if comms[i], err = reg.Create(fmt.Sprintf("c%d", i), 1, nil, ""); err != nil {
			t.Fatal(err)
		}
		seqs[i] = []uint64{comms[i].Seq()}
	}
	var acks atomic.Int64
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := c.AddFamily(); err != nil {
					if !strings.Contains(err.Error(), "closed") {
						t.Errorf("writer %d: %v", i, err)
					}
					return
				}
				seqs[i] = append(seqs[i], c.Seq())
				acks.Add(1)
			}
		}()
	}
	awaitAcks := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); acks.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d writes acknowledged in 20 s, want %d", acks.Load(), n)
			}
		}
	}
	awaitAcks(100)
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	awaitAcks(acks.Load() + 100)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var all []uint64
	for _, s := range seqs {
		all = append(all, s...)
	}
	slices.Sort(all)
	for i, seq := range all {
		if seq != uint64(i+1) {
			t.Fatalf("the acknowledged sequences are not 1 to %d: position %d holds %d", len(all), i, seq)
		}
	}
	snap, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil || snap == nil {
		t.Fatalf("snapshot after Close: %v, %v", snap, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := snap.Seq + 1
	if err := scanSegments(segs, func(seq uint64, _ service.Record) error {
		if seq > snap.Seq {
			if seq != next {
				return fmt.Errorf("sequence %d follows %d", seq, next-1)
			}
			next++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last := uint64(len(all)); next != last+1 {
		t.Fatalf("the segments replay up to sequence %d, want the last acknowledged, %d", next-1, last)
	}

	store, err = Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err = store.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range comms {
		c, ok := reg.Get(fmt.Sprintf("c%d", i))
		if !ok {
			t.Fatalf("community c%d lost", i)
		}
		if got, want := c.Families(), len(seqs[i]); got != want {
			t.Errorf("c%d has %d families after the reopen, want 1 + %d acknowledged", i, got, want-1)
		}
		if got, want := c.Seq(), seqs[i][len(seqs[i])-1]; got != want {
			t.Errorf("c%d reopens at seq %d, want its last acknowledged, %d", i, got, want)
		}
	}
}

// TestWALOverlappingFsyncFailure: two SyncAlways appends fsync at once,
// and one fsync returns nil while the other fails. Linux reports a failed
// writeback to one fsync of a file, so the nil may only mean the other
// fsync took the error for the same pages: neither append is
// acknowledged, and every later LogEncoded, Sync and Close refuses. An
// append whose fsync returned nil waits for the other fsync, whichever
// started first, so it is still waiting while the other runs. Each order
// of the two returns is covered.
func TestWALOverlappingFsyncFailure(t *testing.T) {
	for _, tc := range []struct {
		name         string
		firstReturns int // which fsync returns first: 0 started first, 1 second
		fails        int // which fsync fails
	}{
		{"earlier_fails_after_later_returned_nil", 1, 0},
		{"earlier_returns_nil_after_later_failed", 1, 1},
		{"earlier_returns_nil_then_later_fails", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := openWAL(t.TempDir(), SyncAlways, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var entered, release, returned, done [2]chan struct{}
			for i := range 2 {
				entered[i], release[i], returned[i], done[i] = make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
			}
			var calls atomic.Int32
			orig := syncFile
			t.Cleanup(func() { syncFile = orig })
			syncFile = func(f *os.File) error {
				i := calls.Add(1) - 1
				if i > 1 {
					return fmt.Errorf("fsync %d: the later calls take no fsync", i+1)
				}
				close(entered[i])
				<-release[i]
				defer close(returned[i])
				if int(i) == tc.fails {
					return errors.New("injected writeback error")
				}
				return nil
			}
			var errs [2]error
			for i := range 2 {
				go func() {
					defer close(done[i])
					_, errs[i] = w.Log(service.Record{Op: service.OpAddFamily, ID: "c"})
				}()
				<-entered[i] // the second append's fsync starts while the first's runs
			}
			first, other := tc.firstReturns, 1-tc.firstReturns
			close(release[first])
			<-returned[first]
			if tc.fails != first {
				select {
				case <-done[first]:
					t.Fatalf("append %d returned (err %v) while an fsync that overlapped its own still ran", first+1, errs[first])
				case <-time.After(50 * time.Millisecond):
				}
			}
			close(release[other])
			<-done[0]
			<-done[1]
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "fsync") {
					t.Errorf("append %d of two with overlapping fsyncs, one failed: err = %v, want a refusal naming the fsync", i+1, err)
				}
			}
			refusals := []struct {
				name string
				call func() error
			}{
				{"LogEncoded", func() error {
					_, err := w.LogEncoded([][]byte{[]byte(`{"op":"add_family","id":"c","u":0,"v":0}`)})
					return err
				}},
				{"Sync", w.Sync},
				{"Close", w.Close},
			}
			for _, r := range refusals {
				if err := r.call(); err == nil || !strings.Contains(err.Error(), "fsync") {
					t.Fatalf("%s after a failed fsync: err = %v, want a refusal naming the fsync", r.name, err)
				}
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("%d fsyncs ran, want the two appends' alone", n)
			}
		})
	}
}
