package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/benchkit"
	"repro/internal/service"
	"repro/internal/wire"
)

// verifyWindows is the number of seeded windows checked per community.
// Each window spans at most max(1, verifySpanBudget/families) holidays, so
// checking a community of hundreds of thousands of families stays within
// seconds.
const (
	verifyWindows    = 256
	verifySpanBudget = 1 << 18
)

// verifier counts failed output checks, keeping the first few messages.
type verifier struct {
	failures int
	msgs     []string
}

func (v *verifier) fail(format string, args ...any) {
	v.failures++
	if len(v.msgs) < 5 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

// shape is a community's exported state in the form the checks need.
type shape struct {
	poly bool
	n    int // families
	// adj is the classic conflict graph in CSR form: the neighbours of v
	// are adj[off[v]:off[v+1]].
	off, adj []int
	deg      []int
	// ends holds each poly edge slot's endpoints; live marks occupied slots.
	ends [][2]int
	live []bool
}

func shapeOf(c *service.Community) shape {
	st := c.Export()
	sh := shape{n: st.Families, deg: make([]int, st.Families)}
	if st.Poly != nil {
		sh.poly = true
		sh.ends = make([][2]int, st.Poly.Slots)
		sh.live = make([]bool, st.Poly.Slots)
		for _, e := range st.Poly.Edges {
			sh.ends[e.Slot] = [2]int{e.U, e.V}
			sh.live[e.Slot] = true
			sh.deg[e.U]++
			sh.deg[e.V]++
		}
		return sh
	}
	for _, e := range st.Edges {
		sh.deg[e[0]]++
		sh.deg[e[1]]++
	}
	sh.off = make([]int, sh.n+1)
	for v, d := range sh.deg {
		sh.off[v+1] = sh.off[v] + d
	}
	sh.adj = make([]int, sh.off[sh.n])
	fill := slices.Clone(sh.off[:sh.n])
	for _, e := range st.Edges {
		sh.adj[fill[e[0]]] = e[1]
		fill[e[0]]++
		sh.adj[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	return sh
}

// entities is the id space of the schedule: families, or poly edge slots.
func (sh *shape) entities() int {
	if sh.poly {
		return len(sh.ends)
	}
	return sh.n
}

// checkSet reports why a happy set is not servable — two conflicting
// families (classic), or two edges sharing a family or a vacant slot (poly)
// — or "" when it is. mark and stamp are scratch: mark[x] == stamp means x
// was seen in this set.
func (sh *shape) checkSet(happy []int, mark []int64, stamp int64) string {
	if sh.poly {
		for _, s := range happy {
			if s < 0 || s >= len(sh.ends) || !sh.live[s] {
				return fmt.Sprintf("vacant or unknown edge slot %d is happy", s)
			}
			for _, x := range sh.ends[s] {
				if mark[x] == stamp {
					return fmt.Sprintf("edge slot %d shares family %d with another happy edge", s, x)
				}
				mark[x] = stamp
			}
		}
		return ""
	}
	for _, v := range happy {
		if v < 0 || v >= sh.n {
			return fmt.Sprintf("unknown family %d is happy", v)
		}
		mark[v] = stamp
	}
	for _, v := range happy {
		for _, u := range sh.adj[sh.off[v]:sh.off[v+1]] {
			if mark[u] == stamp {
				return fmt.Sprintf("married families %d and %d are both happy", v, u)
			}
		}
	}
	return ""
}

// periodPerDegree measures schedule quality, the paper's objective: the
// mean over scheduled entities of period ÷ (degree+1) — per family for
// classic communities, per live edge (with its larger endpoint degree) for
// poly ones.
func periodPerDegree(in *instance) (float64, error) {
	var sum float64
	var entities int
	for _, c := range in.comms {
		sh := shapeOf(c)
		s, err := c.Schedule()
		if err != nil {
			return 0, err
		}
		for e := range sh.entities() {
			var d int
			switch {
			case !sh.poly:
				d = sh.deg[e]
			case sh.live[e]:
				d = max(sh.deg[sh.ends[e][0]], sh.deg[sh.ends[e][1]])
			default:
				continue // a vacant edge slot is never scheduled
			}
			t1 := s.NextHappy(e, 1)
			sum += float64(s.NextHappy(e, t1+1)-t1) / float64(d+1)
			entities++
		}
	}
	return sum / float64(max(entities, 1)), nil
}

// verifyInstance checks every community of in on seeded windows: rows are
// the requested holidays, every happy set is servable, and NextHappy agrees
// with Window. With a server, the binary window of the same query must
// decode to the same rows. Poly max-gap ratios — edge period ÷ demand —
// must be at most 1; the worst is returned.
func verifyInstance(in *instance, seed uint64, v *verifier) (maxGap float64, err error) {
	var hc *httpWorker
	if in.srv != nil {
		hc = &httpWorker{in: in, base: in.srv.base, client: newClient(1)}
		defer hc.client.CloseIdleConnections()
	}
	var rows []service.HolidayRow
	var happy []int
	for ci, c := range in.comms {
		id := in.sc.Communities[ci].ID
		sh := shapeOf(c)
		mark := make([]int64, sh.n)
		var stamp int64
		r := rand.New(rand.NewPCG(seed, 0x5eed0000+uint64(ci)))
		maxSpan := min(in.sc.WindowSpan, max(1, verifySpanBudget/sh.n))
		for k := 0; k < verifyWindows; k++ {
			from := 1 + r.Int64N(in.sc.Horizon)
			to := from + int64(r.IntN(maxSpan))
			var err error
			rows, err = c.AppendWindow(rows[:0], from, to)
			if err != nil {
				return 0, fmt.Errorf("verify %s window [%d,%d]: %w", id, from, to, err)
			}
			if int64(len(rows)) != to-from+1 {
				v.fail("%s: window [%d,%d] has %d rows", id, from, to, len(rows))
				continue
			}
			for i, row := range rows {
				if row.Holiday != from+int64(i) {
					v.fail("%s: window [%d,%d] row %d is holiday %d", id, from, to, i, row.Holiday)
					break
				}
				stamp++
				if why := sh.checkSet(row.Happy, mark, stamp); why != "" {
					v.fail("%s: holiday %d: %s", id, row.Holiday, why)
				}
			}
			for j := 0; j < 4; j++ {
				e := r.IntN(sh.entities())
				want := int64(0)
				for _, row := range rows {
					if _, ok := slices.BinarySearch(row.Happy, e); ok {
						want = row.Holiday
						break
					}
				}
				got, err := c.NextHappy(e, from)
				if err != nil {
					return 0, fmt.Errorf("verify %s next(%d, %d): %w", id, e, from, err)
				}
				vacant := sh.poly && !sh.live[e]
				if (want != 0 && got != want) || (want == 0 && got <= to && !(vacant && got == 0)) {
					v.fail("%s: NextHappy(%d, %d) = %d but Window [%d,%d] says %d", id, e, from, got, from, to, want)
				}
			}
			if hc == nil {
				continue
			}
			if err := hc.query(benchkit.Op{Kind: benchkit.OpWindow, Community: ci, From: from, To: to}, id, nil); err != nil {
				return 0, fmt.Errorf("verify %s binary window [%d,%d]: %w", id, from, to, err)
			}
			f, _, _ := wire.Split(hc.resp.Bytes()) // framing checked by query
			wr, _ := f.WindowResp()
			for i, row := range rows {
				happy = wr.AppendHappy(happy[:0], i)
				if wr.Holiday(i) != row.Holiday || !slices.Equal(happy, row.Happy) {
					v.fail("%s: binary holiday %d happy %v, in-process holiday %d happy %v",
						id, wr.Holiday(i), happy, row.Holiday, row.Happy)
					break
				}
			}
		}
		if ps, ok := c.PolyStats(); ok {
			maxGap = max(maxGap, ps.MaxGapRatio)
			if ps.MaxGapRatio > 1 {
				v.fail("%s: max gap ratio %v exceeds 1: some edge waits longer than its demand", id, ps.MaxGapRatio)
			}
		}
	}
	return maxGap, nil
}
