package core

import (
	"fmt"
	"sync"
)

// Schedule is random access into a scheduler's infinite happy-set sequence.
// Where Scheduler is a cursor (one Next per holiday, state advances), a
// Schedule is a value: any holiday, window, or per-node query can be
// answered without disturbing other queries. For the paper's perfectly
// periodic algorithms (§4, §5) every answer is closed-form arithmetic over
// Period/Offset; stateful algorithms (§3, the baselines) are served through
// a bounded replay/memo cursor.
//
// All implementations in this package are safe for concurrent use: the
// closed-form schedules are immutable, and the replay cursor serializes
// internally.
type Schedule interface {
	// Name identifies the underlying algorithm for reports.
	Name() string
	// HappySet returns the happy families at holiday t ≥ 1, in increasing
	// node order, as a fresh slice.
	HappySet(t int64) []int
	// Window streams holidays from..to (inclusive, from ≥ 1, to at most
	// MaxHoliday) in order, calling visit once per holiday. The happy slice
	// is in increasing node order, read-only, and only valid for the
	// duration of the callback: implementations reuse buffers, and
	// ClassSchedule passes its own member storage, which every concurrent
	// reader of the snapshot shares. visit must not call back into the same
	// Schedule: replay cursors hold their lock across the callback, so a
	// reentrant query self-deadlocks.
	Window(from, to int64, visit func(t int64, happy []int))
	// NextHappy returns the first holiday ≥ from at which family v is happy,
	// or 0 if none exists within the implementation's search bound (periodic
	// schedules always succeed; replay cursors scan at most
	// MaxNextHappyScan holidays).
	NextHappy(v int, from int64) int64
	// RandomAccess reports whether HappySet and Window cost is independent
	// of the query position — true for the closed-form periodic schedules,
	// false for replay cursors, which pay for every holiday between their
	// current position and the query. Random-access schedules can be
	// sharded: engine workers query disjoint windows concurrently.
	RandomAccess() bool
}

// windowBlock is the number of holidays a Window call buckets at a time,
// bounding working memory regardless of window length.
const windowBlock = 4096

// MaxHoliday is the largest holiday index a Schedule serves. Periods are at
// most 2^62 (codewords are capped at 62 bits), so closed-form arithmetic on
// holidays ≤ 2^62 cannot overflow int64; queries beyond it return nothing
// (Window) or 0 (NextHappy) instead of wrapping.
const MaxHoliday = int64(1) << 62

// MaxNextHappyScan bounds how many holidays a replay-cursor NextHappy scans
// before giving up. The paper's schedulers wait at most O(deg) holidays, so
// the bound only bites for adversarial queries on pathological schedulers.
const MaxNextHappyScan = 1 << 16

// periodicSchedule answers every query in closed form from a snapshot of
// per-node periods and offsets. The assignment is immutable after
// construction; scratch only holds reusable Window working buffers.
type periodicSchedule struct {
	name    string
	periods []int64
	offsets []int64
	scratch sync.Pool // *windowScratch, see Window
}

// windowScratch is the per-Window working set (next-event cursor per node
// plus one block of happy-set buckets), pooled per schedule so concurrent
// window queries against a cached schedule allocate nothing in steady state.
type windowScratch struct {
	next    []int64
	happyAt [][]int
}

// NewPeriodicSchedule snapshots a perfectly periodic scheduler's closed form
// (Period/Offset for each of the n nodes) into an immutable random-access
// Schedule. The scheduler is never advanced — the Periodic contract
// guarantees the snapshot reproduces Next exactly.
func NewPeriodicSchedule(p Periodic, n int) Schedule {
	periods := make([]int64, n)
	offsets := make([]int64, n)
	for v := 0; v < n; v++ {
		periods[v] = p.Period(v)
		offsets[v] = p.Offset(v)
	}
	return &periodicSchedule{name: p.Name(), periods: periods, offsets: offsets}
}

// NewFixedPeriodic builds a random-access Schedule directly from per-node
// periods and offsets (period ≥ 1, 0 ≤ offset < period), copying both.
func NewFixedPeriodic(name string, periods, offsets []int64) (Schedule, error) {
	if len(periods) != len(offsets) {
		return nil, fmt.Errorf("core: %d periods but %d offsets", len(periods), len(offsets))
	}
	ps := &periodicSchedule{
		name:    name,
		periods: append([]int64(nil), periods...),
		offsets: append([]int64(nil), offsets...),
	}
	for v := range ps.periods {
		if ps.periods[v] < 1 {
			return nil, fmt.Errorf("core: node %d has period %d < 1", v, ps.periods[v])
		}
		if ps.offsets[v] < 0 || ps.offsets[v] >= ps.periods[v] {
			return nil, fmt.Errorf("core: node %d has offset %d outside [0, %d)", v, ps.offsets[v], ps.periods[v])
		}
	}
	return ps, nil
}

// Name implements Schedule.
func (ps *periodicSchedule) Name() string { return ps.name }

// RandomAccess implements Schedule: closed-form queries cost O(1) per node.
func (ps *periodicSchedule) RandomAccess() bool { return true }

// HappySet implements Schedule.
func (ps *periodicSchedule) HappySet(t int64) []int {
	var happy []int
	for v := range ps.periods {
		if t%ps.periods[v] == ps.offsets[v] {
			happy = append(happy, v)
		}
	}
	return happy
}

// NextHappy implements Schedule: the smallest t ≥ max(from, 1) with
// t ≡ offset (mod period), or 0 when the query exceeds MaxHoliday.
func (ps *periodicSchedule) NextHappy(v int, from int64) int64 {
	if v < 0 || v >= len(ps.periods) || from > MaxHoliday {
		return 0
	}
	if from < 1 {
		from = 1
	}
	p := ps.periods[v]
	return from + ((ps.offsets[v]-from)%p+p)%p
}

// Window implements Schedule by walking every node's arithmetic progression
// through the window in windowBlock-sized chunks: each block buckets the
// progressions per holiday with one reused bucket array, so memory stays
// O(n + block) and work is O(n + window + happiness events) — never a scan
// of the holidays before from. The working buffers are pooled per schedule,
// so steady-state serving (many concurrent windows against one cached
// schedule) does not allocate them per query.
func (ps *periodicSchedule) Window(from, to int64, visit func(t int64, happy []int)) {
	if to > MaxHoliday {
		to = MaxHoliday
	}
	if from < 1 || to < from {
		return
	}
	n := len(ps.periods)
	ws, _ := ps.scratch.Get().(*windowScratch)
	if ws == nil {
		ws = &windowScratch{}
	}
	defer ps.scratch.Put(ws)
	if cap(ws.next) < n {
		ws.next = make([]int64, n)
	}
	next := ws.next[:n]
	for v := 0; v < n; v++ {
		next[v] = ps.NextHappy(v, from)
	}
	blockLen := to - from + 1
	if blockLen > windowBlock {
		blockLen = windowBlock
	}
	if int64(cap(ws.happyAt)) < blockLen {
		grown := make([][]int, blockLen)
		copy(grown, ws.happyAt[:cap(ws.happyAt)])
		ws.happyAt = grown
	}
	happyAt := ws.happyAt[:blockLen]
	for blo := from; blo <= to; blo += blockLen {
		bhi := blo + blockLen - 1
		if bhi > to {
			bhi = to
		}
		for i := range happyAt[:bhi-blo+1] {
			happyAt[i] = happyAt[i][:0]
		}
		for v := 0; v < n; v++ {
			t := next[v]
			for ; t <= bhi; t += ps.periods[v] {
				happyAt[t-blo] = append(happyAt[t-blo], v)
			}
			next[v] = t
		}
		for t := blo; t <= bhi; t++ {
			visit(t, happyAt[t-blo])
		}
	}
}

// replaySchedule adapts a stateful Scheduler to the Schedule interface with
// a bounded memo: the last memoCap happy sets stay cached, repeated and
// overlapping queries inside that window are served without re-simulation,
// and a seek before the memo reconstructs a fresh scheduler via the factory
// and replays from holiday 1.
type replaySchedule struct {
	name    string // captured at construction: Name must not race with rewind
	mu      sync.Mutex
	factory func() (Scheduler, error) // nil: forward-only cursor
	s       Scheduler
	cursor  int64   // last holiday produced by s.Next
	memo    [][]int // ring: holiday t at memo[t%memoCap], valid for cursor-memoCap < t ≤ cursor
	memoCap int64
}

// DefaultReplayMemo is the number of recent holidays a replay Schedule keeps
// cached for backward queries that do not warrant a full re-simulation.
const DefaultReplayMemo = 1024

// NewReplaySchedule wraps a stateful scheduler as a Schedule. s must be
// fresh (no Next calls yet). factory reconstructs an identical fresh
// scheduler — it is invoked when a query seeks before the memo window and
// must be deterministic (same graph, algorithm, and seed) for the replay to
// reproduce the original sequence. A nil factory yields a forward-only
// cursor: queries that would rewind past the memo panic.
func NewReplaySchedule(s Scheduler, factory func() (Scheduler, error)) Schedule {
	return &replaySchedule{
		name:    s.Name(),
		factory: factory,
		s:       s,
		memo:    make([][]int, DefaultReplayMemo),
		memoCap: DefaultReplayMemo,
	}
}

// Name implements Schedule.
func (rs *replaySchedule) Name() string { return rs.name }

// RandomAccess implements Schedule: a replay cursor pays for every holiday
// between its position and the query.
func (rs *replaySchedule) RandomAccess() bool { return false }

// advance steps the underlying scheduler one holiday, memoizing the result,
// and returns the memo slot (valid until the slot is overwritten).
func (rs *replaySchedule) advance() []int {
	happy := rs.s.Next()
	rs.cursor++
	slot := rs.cursor % rs.memoCap
	rs.memo[slot] = append(rs.memo[slot][:0], happy...)
	return rs.memo[slot]
}

// rewind discards the cursor and restarts from a fresh scheduler.
func (rs *replaySchedule) rewind() {
	if rs.factory == nil {
		panic(fmt.Sprintf("core: schedule %q cannot seek before holiday %d: built without a factory (use NewReplaySchedule with one for full random access)",
			rs.s.Name(), rs.cursor-rs.memoCap+1))
	}
	s, err := rs.factory()
	if err != nil {
		panic(fmt.Sprintf("core: schedule %q factory failed on rewind: %v", rs.s.Name(), err))
	}
	rs.s = s
	rs.cursor = 0
}

// happyAt returns the happy set at t without copying, seeking as needed.
// Caller holds rs.mu; the slice is valid until the next advance overwrites
// its ring slot.
func (rs *replaySchedule) happyAt(t int64) []int {
	if t <= rs.cursor-rs.memoCap {
		rs.rewind()
	}
	if t <= rs.cursor {
		return rs.memo[t%rs.memoCap]
	}
	for rs.cursor < t-1 {
		rs.advance()
	}
	return rs.advance()
}

// HappySet implements Schedule.
func (rs *replaySchedule) HappySet(t int64) []int {
	if t < 1 || t > MaxHoliday {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]int(nil), rs.happyAt(t)...)
}

// Window implements Schedule: memoized holidays are served from the ring,
// the remainder by advancing the cursor.
func (rs *replaySchedule) Window(from, to int64, visit func(t int64, happy []int)) {
	if to > MaxHoliday {
		to = MaxHoliday
	}
	if from < 1 || to < from {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for t := from; t <= to; t++ {
		visit(t, rs.happyAt(t))
	}
}

// NextHappy implements Schedule: scan forward from max(from, 1) until v
// appears, giving up (returning 0) after MaxNextHappyScan holidays.
func (rs *replaySchedule) NextHappy(v int, from int64) int64 {
	if from > MaxHoliday {
		return 0
	}
	if from < 1 {
		from = 1
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for t := from; t < from+MaxNextHappyScan; t++ {
		for _, u := range rs.happyAt(t) {
			if u == v {
				return t
			}
		}
	}
	return 0
}

// ScheduleOf adapts a scheduler to the Schedule interface over n nodes.
// Perfectly periodic schedulers become immutable closed-form schedules
// (RandomAccess true, s never advanced); anything else becomes a
// forward-only replay cursor around s itself — sufficient for a single
// in-order sweep such as analysis, but seeks before the memo window panic.
// Use NewReplaySchedule with a factory when full random access over a
// stateful scheduler is needed.
func ScheduleOf(s Scheduler, n int) Schedule {
	if p, ok := s.(Periodic); ok {
		return NewPeriodicSchedule(p, n)
	}
	return NewReplaySchedule(s, nil)
}
