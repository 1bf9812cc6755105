package main

import (
	"fmt"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/service"
)

// tracedWorker executes the ops of one load goroutine in the traced run.
// Untraced ops go through benchkit's driver instead.
type tracedWorker interface {
	// doTraced runs op as separate timed public calls, recording spans into
	// ot when the op is sampled (ot is nil otherwise).
	doTraced(op benchkit.Op, ot *opTrace) error
}

// inprocWorker calls the service layer directly.
type inprocWorker struct {
	in   *instance
	rows []service.HolidayRow // window buffer reused across ops, as a server would
}

// doTraced splits a read into the two public calls AppendWindow and
// NextHappy make — Community.Schedule, then the frozen schedule's Window or
// NextHappy — and follows every churn op with one Schedule call so the
// refreeze it forces is timed on its own.
func (w *inprocWorker) doTraced(op benchkit.Op, ot *opTrace) error {
	ci := op.Community
	c := w.in.comms[ci]
	switch op.Kind {
	case benchkit.OpWindow:
		s, err := w.in.schedule(ci, ot)
		if err != nil {
			return err
		}
		id := ot.start(w.in.layer[ci]+".window", 0)
		rows := w.rows[:0]
		s.Window(op.From, op.To, func(t int64, happy []int) {
			// The row copy AppendWindow does, reusing slots and their buffers.
			n := len(rows)
			if cap(rows) > n {
				rows = rows[:n+1]
			} else {
				rows = append(rows, service.HolidayRow{})
			}
			rows[n].Holiday = t
			rows[n].Happy = append(rows[n].Happy[:0], happy...)
		})
		ot.end(id, "")
		w.rows = rows
		if int64(len(rows)) != op.To-op.From+1 {
			return fmt.Errorf("window [%d,%d] returned %d rows", op.From, op.To, len(rows))
		}
		return nil
	case benchkit.OpNext:
		s, err := w.in.schedule(ci, ot)
		if err != nil {
			return err
		}
		id := ot.start(w.in.layer[ci]+".next", 0)
		s.NextHappy(op.U, op.From)
		ot.end(id, "")
		return nil
	case benchkit.OpMarry, benchkit.OpDivorce:
		id := ot.start("service.churn", 0)
		if ot != nil {
			defer ot.register(liveKey{community: c.ID(), u: op.U, v: op.V}, id)()
		}
		var err error
		if op.Kind == benchkit.OpMarry {
			_, err = c.Marry(op.U, op.V)
		} else {
			_, _, err = c.Divorce(op.U, op.V)
		}
		ot.end(id, "")
		if err != nil {
			return err
		}
		_, err = w.in.schedule(ci, ot)
		return err
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

// schedule calls Community.Schedule as a span named service.schedule, or
// <layer>.freeze when the call froze a new schedule.
func (in *instance) schedule(ci int, ot *opTrace) (core.Schedule, error) {
	id := ot.start("service.schedule", 0)
	s, err := in.comms[ci].Schedule()
	rename := ""
	if err == nil && in.observe(ci, s) {
		rename = in.layer[ci] + ".freeze"
	}
	ot.end(id, rename)
	return s, err
}
