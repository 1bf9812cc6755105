package poly

import (
	"fmt"

	"repro/internal/stats"
)

// EdgeState is one live edge in an exported instance, pinned to its slot
// so a restored schedule's bitmap rows stay byte-identical.
type EdgeState struct {
	Slot   int   `json:"slot"`
	U      int   `json:"u"`
	V      int   `json:"v"`
	Demand int64 `json:"demand"`
	Layer  int32 `json:"layer"`
}

// LayerState is one layer's residue class. Dead layers export as zero
// entries: they hold no class, but their indices must survive a round trip
// so the lowest-dead-index reuse rule picks the same slot after restore.
type LayerState struct {
	Period int64 `json:"period,omitempty"`
	Offset int64 `json:"offset,omitempty"`
	Target int64 `json:"target,omitempty"`
}

// State is the exact serialized form of a Dyn — everything churn replay
// needs to continue byte-identically. It rides inside the service layer's
// CommunityState for poly communities.
type State struct {
	N           int          `json:"n"`
	Code        string       `json:"code"`
	Slots       int          `json:"slots"`
	Edges       []EdgeState  `json:"edges,omitempty"`
	Layers      []LayerState `json:"layers,omitempty"`
	Relayerings int64        `json:"relayerings,omitempty"`
}

// Export snapshots the instance. The result shares nothing with the live
// instance.
func (d *Dyn) Export() State {
	st := State{
		N:           d.n,
		Code:        d.code,
		Slots:       len(d.slots),
		Layers:      make([]LayerState, len(d.layers)),
		Relayerings: d.relayered,
	}
	for i, l := range d.layers {
		st.Layers[i] = LayerState{Period: l.period, Offset: l.offset, Target: l.target}
	}
	for slot, s := range d.slots {
		if s.present {
			st.Edges = append(st.Edges, EdgeState{Slot: slot, U: s.u, V: s.v, Demand: s.demand, Layer: s.layer})
		}
	}
	return st
}

// Restore rebuilds an instance from an exported State, validating every
// structural invariant (Verify) before returning — corrupt or hostile
// snapshots are rejected, never half-applied.
func Restore(st State) (*Dyn, error) {
	d, err := New(st.N, st.Code)
	if err != nil {
		return nil, err
	}
	if st.Slots < 0 || st.Slots > (1<<31-1) || len(st.Edges) > st.Slots {
		return nil, fmt.Errorf("poly: state declares %d slots for %d edges", st.Slots, len(st.Edges))
	}
	d.slots = make([]edgeSlot, st.Slots)
	d.layers = make([]layer, len(st.Layers))
	for i, l := range st.Layers {
		d.layers[i] = layer{period: l.Period, offset: l.Offset, target: l.Target}
	}
	for _, e := range st.Edges {
		if e.Slot < 0 || e.Slot >= st.Slots || d.slots[e.Slot].present {
			return nil, fmt.Errorf("poly: edge (%d,%d) claims bad slot %d", e.U, e.V, e.Slot)
		}
		if e.U < 0 || e.V < 0 || e.U >= st.N || e.V >= st.N || e.U == e.V {
			return nil, fmt.Errorf("poly: state holds invalid edge (%d,%d)", e.U, e.V)
		}
		if e.Demand < 1 || e.Demand > MaxPeriod {
			return nil, fmt.Errorf("poly: edge (%d,%d) has demand %d", e.U, e.V, e.Demand)
		}
		if e.Layer < 0 || int(e.Layer) >= len(d.layers) {
			return nil, fmt.Errorf("poly: edge (%d,%d) references layer %d", e.U, e.V, e.Layer)
		}
		key := canon(e.U, e.V)
		if _, dup := d.byEdge[key]; dup {
			return nil, fmt.Errorf("poly: duplicate edge (%d,%d)", e.U, e.V)
		}
		d.slots[e.Slot] = edgeSlot{u: key[0], v: key[1], demand: e.Demand, present: true}
		d.byEdge[key] = e.Slot
		d.edges++
		d.attach(e.Slot, e.Layer)
	}
	for slot := range d.slots {
		if !d.slots[slot].present {
			d.vacant = append(d.vacant, int32(slot)) // increasing: a heap as it stands
		}
	}
	d.relayered = st.Relayerings
	if err := d.Verify(); err != nil {
		return nil, err
	}
	return d, nil
}

// Stats summarizes an instance for reports and bench snapshots. All
// fields are finite for every instance, including the empty one.
type Stats struct {
	// Edges counts live edges.
	Edges int `json:"edges"`
	// Layers counts live layers (matchings with an allocated class).
	Layers int `json:"layers"`
	// Density is Σ 1/period over live layers (≤ 1 by construction).
	Density float64 `json:"density"`
	// DemandDensity is Σ 1/demand over live edges — the load demanded.
	DemandDensity float64 `json:"demand_density"`
	// MaxGapRatio is max over edges of period/demand; ≤ 1 iff every demand
	// is met.
	MaxGapRatio float64 `json:"max_gap_ratio"`
	// Fairness is Jain's index of per-edge service rates demand/period.
	Fairness float64 `json:"fairness"`
	// Relayerings counts full relayering rebuilds so far.
	Relayerings int64 `json:"relayerings"`
}

// Stats computes the instance summary.
func (d *Dyn) Stats() Stats {
	st := Stats{Edges: d.edges, Relayerings: d.relayered, Fairness: 1}
	for i := range d.layers {
		if d.layers[i].period > 0 {
			st.Layers++
			st.Density += 1 / float64(d.layers[i].period)
		}
	}
	var rates []float64
	for i := range d.slots {
		s := &d.slots[i]
		if !s.present {
			continue
		}
		st.DemandDensity += 1 / float64(s.demand)
		ratio := float64(d.layers[s.layer].period) / float64(s.demand)
		if ratio > st.MaxGapRatio {
			st.MaxGapRatio = ratio
		}
		rates = append(rates, 1/ratio)
	}
	if len(rates) > 0 {
		st.Fairness = stats.JainFairness(rates)
	}
	return st
}
