package service

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingJournal is a BatchJournal whose appends wait until release is
// closed, as a SyncAlways append waits for its fsync; entered is closed
// when the first append arrives.
type blockingJournal struct {
	entered, release chan struct{}
	once             sync.Once
	seq              atomic.Uint64
}

func (j *blockingJournal) Log(rec Record) (uint64, error) { return j.LogBatch([]Record{rec}) }

func (j *blockingJournal) LogBatch(recs []Record) (uint64, error) {
	j.once.Do(func() { close(j.entered) })
	<-j.release
	return j.seq.Add(uint64(len(recs))), nil
}

// TestReadsDoNotWaitForJournal: while a marriage that changes the schedule
// waits in the journal, Schedule, AppendWindow and NextHappy on its
// community answer within a deadline, from the schedule published before
// the write: the very same one, since the write applies nothing until its
// record is journaled. Once the journal returns, the next read finds the
// patched schedule, with the version advanced and no freeze.
func TestReadsDoNotWaitForJournal(t *testing.T) {
	for _, kind := range []string{KindClassic, KindPoly} {
		t.Run(kind, func(t *testing.T) {
			reg := New(Opts{})
			// Families 0 and 2 share a color on the ring, so marrying them
			// recolors one; in poly it attaches a new edge slot.
			c, err := reg.CreateSpec(CreateSpec{ID: "c", Families: 8, Edges: ringEdges(8), Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			before, err := c.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			rows, err := c.AppendWindow(nil, 1, 64)
			if err != nil {
				t.Fatal(err)
			}
			next, err := c.NextHappy(1, 5)
			if err != nil {
				t.Fatal(err)
			}

			j := &blockingJournal{entered: make(chan struct{}), release: make(chan struct{})}
			var release sync.Once
			t.Cleanup(func() { release.Do(func() { close(j.release) }) })
			reg.SetJournal(j)
			married := make(chan error, 1)
			go func() {
				_, err := c.Marry(0, 2)
				married <- err
			}()
			<-j.entered

			read := make(chan error, 1)
			go func() {
				read <- func() error {
					s, err := c.Schedule()
					if err != nil || s != before {
						return fmt.Errorf("Schedule() = %p, %v during the write, want the published %p", s, err, before)
					}
					got, err := c.AppendWindow(nil, 1, 64)
					if err != nil || !reflect.DeepEqual(got, rows) {
						return fmt.Errorf("AppendWindow during the write answered %v, %v, want the pre-write %v", got, err, rows)
					}
					if got, err := c.NextHappy(1, 5); err != nil || got != next {
						return fmt.Errorf("NextHappy during the write = %d, %v, want the pre-write %d", got, err, next)
					}
					return nil
				}()
			}()
			select {
			case err := <-read:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("reads waited 2 s for a write held in the journal")
			}

			release.Do(func() { close(j.release) })
			if err := <-married; err != nil {
				t.Fatal(err)
			}
			after, err := c.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			if after == before {
				t.Fatal("the journaled marriage left the pre-write schedule published")
			}
			if st := c.Stats(); st.Version != 1 || st.CacheMisses != 1 {
				t.Fatalf("after the marriage: version %d, misses %d; want 1, 1 (patched, not frozen)", st.Version, st.CacheMisses)
			}
			checkPublished(t, c, "after the journaled marriage")
		})
	}
}
