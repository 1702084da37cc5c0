package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro"
	"repro/internal/wire"
)

// verify is the correctness and durability oracle, run after the clock
// stops on the system that served the measured phase:
//
//   - every acknowledged tuple is held by a primary (none lost, none
//     duplicated), within the retention bound;
//   - sampled reads return over the wire exactly what the facade
//     returns in process on the same node — bit-equal over binary TCP,
//     equal after the float round trip over JSON;
//   - after a restart, answers equal those taken before the close.
func (b *bench) verify(s *sut) error {
	if b.r.failures() > 0 {
		return fmt.Errorf("%d operations failed; first: %v", b.r.failures(), b.r.firstErr)
	}
	if want, got := retained(b.in.stream, b.w.retain), s.tuples(); want != got {
		return fmt.Errorf("durability: %d tuples acknowledged and retained, primaries hold %d", want, got)
	}
	p := s.members[0].p
	for i, q := range b.probes {
		v, err := p.Query(b.ctx, q)
		if err != nil {
			return fmt.Errorf("restart probe %d: %w", i, err)
		}
		if math.Float64bits(v) != math.Float64bits(b.before[i]) {
			return fmt.Errorf("restart probe %d: %v before the close, %v after reopen", i, b.before[i], v)
		}
	}
	idx := make([]int, 0, len(b.r.keep))
	for i := range b.r.keep {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		o := &b.in.ops[i]
		got, ok := b.r.kept[i]
		if o.live || !ok {
			// A live window kept changing during the run (and may be
			// evicted by now): ask the same question of the window that
			// is live now, over the wire and then in process.
			var err error
			if o, err = b.relive(o); err != nil {
				return err
			}
			if _, got, err = b.r.clients[0].do(i, o, true); err != nil {
				return fmt.Errorf("oracle read %d: %w", i, err)
			}
		}
		if err := b.compare(p, o, got); err != nil {
			return fmt.Errorf("oracle read %d (%s, live=%v): %w", i, kindNames[o.kind], o.live, err)
		}
	}
	return nil
}

// relive re-aims a live read at the newest acknowledged tuple's time.
func (b *bench) relive(o *op) (*op, error) {
	now := *o
	now.t = b.in.stream[len(b.in.stream)-1].T
	now.pts = append([]wire.QueryRequest(nil), o.pts...)
	for i := range now.pts {
		now.pts[i].T = now.t
	}
	if b.w.http {
		if err := now.encodeHTTP(); err != nil {
			return nil, err
		}
	}
	return &now, nil
}

// compare checks one wire answer against the facade's.
func (b *bench) compare(p *repro.Platform, o *op, got reply) error {
	switch o.kind {
	case opRoute:
		reqs := make([]repro.Request, len(o.pts))
		for i, q := range o.pts {
			reqs[i] = repro.Request{T: q.T, X: q.X, Y: q.Y, Pollutant: q.Pollutant}
		}
		want, err := p.QueryBatch(b.ctx, reqs)
		if err != nil {
			return err
		}
		values, err := routeValues(got)
		if err != nil {
			return err
		}
		if len(values) != len(want) {
			return fmt.Errorf("%d values on the wire, %d in process", len(values), len(want))
		}
		for i := range want {
			if want[i].Err != nil {
				return want[i].Err
			}
			if math.Float64bits(values[i]) != math.Float64bits(want[i].Value) {
				return fmt.Errorf("point %d: %v on the wire, %v in process", i, values[i], want[i].Value)
			}
		}
	case opModel:
		want, err := p.ModelResponse(b.ctx, pollutant, o.t)
		if err != nil {
			return err
		}
		model, ok := got.msg.(wire.ModelResponse)
		if got.body != nil {
			if err := json.Unmarshal(got.body, &model); err != nil {
				return err
			}
		} else if !ok {
			return fmt.Errorf("reply is %T", got.msg)
		}
		if !reflect.DeepEqual(model, want) {
			return fmt.Errorf("model cover differs: %d regions on the wire, %d in process", len(model.Centroids), len(want.Centroids))
		}
	case opHeatmap:
		want, err := p.Heatmap(b.ctx, pollutant, o.t, heatmapSide, heatmapSide)
		if err != nil {
			return err
		}
		var values []float64
		if got.body != nil {
			var doc struct {
				Grid struct{ Values []float64 }
			}
			if err := json.Unmarshal(got.body, &doc); err != nil {
				return err
			}
			values = doc.Grid.Values
		} else if hm, ok := got.msg.(wire.HeatmapResponse); ok {
			values = hm.Values
		}
		if len(values) != len(want.Values) {
			return fmt.Errorf("%d cells on the wire, %d in process", len(values), len(want.Values))
		}
		for i := range values {
			if math.Float64bits(values[i]) != math.Float64bits(want.Values[i]) {
				return fmt.Errorf("cell %d: %v on the wire, %v in process", i, values[i], want.Values[i])
			}
		}
	}
	return nil
}

func routeValues(got reply) ([]float64, error) {
	if got.body != nil {
		var doc struct {
			Values []struct{ Value float64 }
		}
		if err := json.Unmarshal(got.body, &doc); err != nil {
			return nil, err
		}
		out := make([]float64, len(doc.Values))
		for i, v := range doc.Values {
			out[i] = v.Value
		}
		return out, nil
	}
	resp, ok := got.msg.(wire.BatchQueryResponse)
	if !ok {
		return nil, fmt.Errorf("reply is %T", got.msg)
	}
	out := make([]float64, len(resp.Items))
	for i, it := range resp.Items {
		out[i] = it.Value
	}
	return out, nil
}
