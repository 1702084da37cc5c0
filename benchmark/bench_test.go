package main

import (
	"sort"
	"testing"
)

func TestSameSeedSameSequence(t *testing.T) {
	w := findWorkload("route_tcp")
	a, err := generate(w, 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash() != b.hash() {
		t.Errorf("same seed, different sequences: %x vs %x", a.hash(), b.hash())
	}
	if a.hash() == c.hash() {
		t.Errorf("seeds 7 and 8 gave the same sequence %x", a.hash())
	}
}

func TestSequenceShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		total := 0
		for _, share := range w.mix {
			total += share
		}
		if total != 100 {
			t.Errorf("%s: mix sums to %d", w.name, total)
		}
		in, err := generate(w, 3, 500)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := opCounts(w.mix, in.segLen)
		for s := 0; s < segments; s++ {
			lo, hi := in.segment(s)
			var got [numKinds]int
			for _, o := range in.ops[lo:hi] {
				got[o.kind]++
			}
			if got != want {
				t.Errorf("%s segment %d: mix %v, want %v", w.name, s, got, want)
			}
			// Steady cadence: one write in each of as many equal strata.
			for j, c := 0, want[opIngest]; j < c; j++ {
				n := 0
				for _, o := range in.ops[lo+j*in.segLen/c : lo+(j+1)*in.segLen/c] {
					if o.kind == opIngest {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s segment %d: stratum %d of %d holds %d writes", w.name, s, j, c, n)
				}
			}
		}
		// Writes take the stream in order, and every live read names a
		// time at or before the write reorderWindow positions back.
		last := in.preload[len(in.preload)-1].T
		var ackedAt []float64 // by position: newest write start at or before it
		for _, o := range in.ops {
			if o.kind == opIngest {
				if o.tuples[0].T < last {
					t.Fatalf("%s: write out of stream order", w.name)
				}
				last = o.tuples[0].T
			}
			ackedAt = append(ackedAt, last)
		}
		for i, o := range in.ops {
			if !o.live {
				continue
			}
			limit := in.preload[len(in.preload)-1].T
			if i >= reorderWindow {
				limit = ackedAt[i-reorderWindow]
			}
			if o.t >= limit+1 {
				t.Fatalf("%s op %d: live read at t=%v, newest acknowledged write starts at %v", w.name, i, o.t, limit)
			}
		}
		if w.http && (in.ops[0].path == "" || (in.ops[0].kind == opIngest && in.ops[0].body == nil)) {
			t.Errorf("%s: HTTP form missing", w.name)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// The segment median: five segment rates, one of them disturbed.
	if got := median([]float64{980, 1010, 400, 1000, 990}); got != 990 {
		t.Errorf("median = %v, want 990", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := spread([]float64{95, 100, 105}); got != 0.1 {
		t.Errorf("spread = %v, want 0.1", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileSpread(v); got != (8.25-2.75)/5.5 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestRetained(t *testing.T) {
	in, err := generate(findWorkload("ingest_tcp"), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := retained(in.stream, 0); got != len(in.stream) {
		t.Errorf("unbounded retention keeps %d of %d", got, len(in.stream))
	}
	// One window of a 16-bus fleet sampling every 30 s, minus dropouts.
	if got := retained(in.stream, 1); got <= 0 || got > vehicles*windowSeconds/sampleEvery {
		t.Errorf("newest window holds %d tuples", got)
	}
}

// A hand-built trace: one operation with a handler span holding two
// sequential children, one with two parallel children, and a span that
// outlives its operation.
func handBuilt() []span {
	return []span{
		{Name: "op", Op: 1, Start: 0, End: 100},
		{Name: "server.handle", Op: 1, Start: 10, End: 90},
		{Name: "peer.exchange", Op: 1, Start: 20, End: 40},
		{Name: "peer.exchange", Op: 1, Start: 50, End: 80},
		{Name: "op", Op: 2, Start: 0, End: 100},
		{Name: "peer.exchange", Op: 2, Start: 10, End: 60},
		{Name: "peer.exchange", Op: 2, Start: 30, End: 90},
		{Name: "peer.exchange", Op: 2, Start: 95, End: 140}, // async: ends after its op
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := handBuilt()
	resolveParents(spans)
	self := selfTimes(spans)
	byKey := map[[3]int64]int{}
	for i, s := range spans {
		byKey[[3]int64{int64(s.Op), s.Start, s.End}] = i
	}
	at := func(op, start, end int64) (span, int64) {
		i, ok := byKey[[3]int64{op, start, end}]
		if !ok {
			t.Fatalf("span op=%d [%d,%d] lost", op, start, end)
		}
		return spans[i], self[spans[i].ID-1]
	}
	root, rootSelf := at(1, 0, 100)
	handler, handlerSelf := at(1, 10, 90)
	child, childSelf := at(1, 20, 40)
	if root.Parent != 0 || handler.Parent != root.ID || child.Parent != handler.ID {
		t.Errorf("parents: root %d, handler %d, child %d", root.Parent, handler.Parent, child.Parent)
	}
	if rootSelf != 20 || handlerSelf != 30 || childSelf != 20 {
		t.Errorf("self times: root %d (want 20), handler %d (want 30), child %d (want 20)", rootSelf, handlerSelf, childSelf)
	}
	// Parallel children: the root keeps only what neither covers.
	if _, s := at(2, 0, 100); s != 20 {
		t.Errorf("root with parallel children: self %d, want 20", s)
	}
	if a, _ := at(2, 95, 140); a.Parent != 0 {
		t.Errorf("span outliving its operation has parent %d, want 0", a.Parent)
	}
	checked, parallel, worst := treeCheck(spans, self)
	if checked != 1 || parallel != 1 || worst != 0 {
		t.Errorf("treeCheck = %d checked, %d parallel, worst %d; want 1, 1, 0", checked, parallel, worst)
	}
	totals := aggregate(spans, self)
	if got := totals["peer.exchange"]; got.count != 5 || got.total != 20+30+50+60+45 {
		t.Errorf("peer.exchange totals: %+v", got)
	}
}

func TestManifestMatchesSpec(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) || len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics and %d workloads; the program has %d+%d and %d",
			len(m.EndToEnd), len(m.PerLayer), len(m.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program says %s (%s)", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program says %s (%s)", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workloads[%d] = %s (%q), program says %s (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the op counts were frozen at %d", m.RunSeconds, defaultSeconds)
	}
}

// The emitted result carries every metric BENCHMARK.json names, with its
// unit, for both kinds of run.
func TestResultCarriesEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := &report{Traced: traced, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		res := rep.result()
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		var names []string
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) != len(defs) {
			t.Fatalf("traced=%v: %d metrics emitted, %d defined", traced, len(names), len(defs))
		}
		for _, d := range defs {
			if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
				t.Errorf("traced=%v: %s emitted as %+v, want unit %s", traced, d.name, got, d.unit)
			}
		}
	}
}
