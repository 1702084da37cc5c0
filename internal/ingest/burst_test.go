package ingest

// A burst of bus uploads against one pollutant: the measurement that
// decides whether the pipeline's coalescing earns its queue. N uploaders
// each submit small uploads back to back into a durable store that
// fsyncs every append; coalesced_ratio is the share of submissions that
// rode along in another's append (the benchmark's ingest.coalesced_ratio).
//
//	go test -run TestBurstCoalescedRatio -v ./internal/ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/tuple"
)

func TestBurstCoalescedRatio(t *testing.T) {
	const (
		uploads    = 20 // per uploader
		uploadSize = 16 // tuples, a bus's upload
	)
	for _, n := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("uploaders=%d", n), func(t *testing.T) {
			st, err := store.Open(store.Config{WindowLength: 3600, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			p, err := NewPipeline(func(_ tuple.Pollutant, b tuple.Batch) error { return st.Append(b) }, PipelineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for u := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range uploads {
						b := pipeBatch(float64((u*uploads+i)%200)*uploadSize, uploadSize)
						if err := p.Submit(context.Background(), tuple.CO2, b); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			s := p.Stats()
			ratio := float64(s.Coalesced) / float64(s.Submitted)
			t.Logf("%d uploaders: %d submissions in %d appends, coalesced_ratio %.4f", n, s.Submitted, s.Appends, ratio)
			if want := int64(n * uploads); s.Submitted != want || s.Appends+s.Coalesced != want {
				t.Fatalf("stats %+v: want %d submissions, each appended alone or coalesced", s, want)
			}
			if got, want := st.Len(), n*uploads*uploadSize; got != want {
				t.Fatalf("store holds %d tuples, want %d", got, want)
			}
			if n == 1 && s.Coalesced != 0 {
				t.Fatalf("a lone uploader waits for each ack, yet %d submissions coalesced", s.Coalesced)
			}
		})
	}
}
