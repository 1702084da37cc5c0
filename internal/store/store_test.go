package store

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tuple"
)

func mkBatch(ts ...float64) tuple.Batch {
	b := make(tuple.Batch, len(ts))
	for i, t := range ts {
		b[i] = tuple.Raw{T: t, X: float64(i), Y: float64(i), S: 400 + t}
	}
	return b
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{WindowLength: 0}); err == nil {
		t.Error("expected error for zero window length")
	}
	if _, err := Open(Config{WindowLength: -5}); err == nil {
		t.Error("expected error for negative window length")
	}
	if _, err := Open(Config{WindowLength: 10, Retain: -1}); err == nil {
		t.Error("expected error for negative retain")
	}
}

func TestAppendAndWindowing(t *testing.T) {
	s := MustOpenMemory(100)
	if err := s.Append(mkBatch(0, 50, 99.9, 100, 150, 250)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
	if got := len(s.Window(0)); got != 3 {
		t.Errorf("window 0 has %d tuples, want 3", got)
	}
	if got := len(s.Window(1)); got != 2 {
		t.Errorf("window 1 has %d tuples, want 2", got)
	}
	if got := len(s.Window(2)); got != 1 {
		t.Errorf("window 2 has %d tuples, want 1", got)
	}
	if got := len(s.Window(99)); got != 0 {
		t.Errorf("missing window has %d tuples, want 0", got)
	}
	if got := s.WindowIndexes(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("WindowIndexes = %v", got)
	}
	if s.MaxTime() != 250 {
		t.Errorf("MaxTime = %v, want 250", s.MaxTime())
	}
}

func TestWindowReturnsSortedCopy(t *testing.T) {
	s := MustOpenMemory(100)
	if err := s.Append(mkBatch(50, 10, 30)); err != nil {
		t.Fatal(err)
	}
	w := s.Window(0)
	if !w.SortedByTime() {
		t.Error("window not sorted by time")
	}
	w[0].S = -999
	if s.Window(0)[0].S == -999 {
		t.Error("Window must return a copy")
	}
}

func TestAppendValidates(t *testing.T) {
	s := MustOpenMemory(100)
	bad := tuple.Batch{{T: -1}}
	if err := s.Append(bad); err == nil {
		t.Error("expected validation error")
	}
	if s.Len() != 0 {
		t.Error("failed append must not change state")
	}
	if err := s.Append(nil); err != nil {
		t.Errorf("empty append should be a no-op, got %v", err)
	}
}

func TestRetentionEviction(t *testing.T) {
	s, err := Open(Config{WindowLength: 10, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(5, 15, 25, 35)); err != nil { // windows 0..3
		t.Fatal(err)
	}
	if got := s.WindowIndexes(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("retained windows = %v, want [2 3]", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if len(s.Window(0)) != 0 {
		t.Error("evicted window still readable")
	}
}

func TestEmptyStore(t *testing.T) {
	s := MustOpenMemory(10)
	if got := s.WindowIndexes(); len(got) != 0 {
		t.Errorf("empty store retains windows %v", got)
	}
	if s.MaxTime() != 0 {
		t.Error("empty MaxTime should be 0")
	}
	if s.Len() != 0 {
		t.Error("empty Len should be 0")
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s := MustOpenMemory(50)
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				b := tuple.Batch{{T: rng.Float64() * 1000, S: 400}}
				if err := s.Append(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Len()
				_ = s.WindowIndexes()
				_ = s.Window(i % 20)
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
	// Every tuple landed in its correct window.
	total := 0
	for _, c := range s.WindowIndexes() {
		w := s.Window(c)
		total += len(w)
		for _, r := range w {
			if tuple.WindowIndex(r.T, 50) != c {
				t.Fatalf("tuple %v in wrong window %d", r, c)
			}
		}
	}
	if total != writers*perWriter {
		t.Errorf("window sum = %d, want %d", total, writers*perWriter)
	}
}

func TestCloseIdempotentWithoutDurability(t *testing.T) {
	s := MustOpenMemory(10)
	if err := s.Close(); err != nil {
		t.Errorf("Close on memory store: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync on memory store: %v", err)
	}
}

func TestOnEvictHook(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var evicted []int
	s.OnEvict(func(ws []int) {
		mu.Lock()
		evicted = append(evicted, ws...)
		mu.Unlock()
	})
	for c := 0; c < 5; c++ {
		if err := s.Append(mkBatch(float64(c)*100 + 50)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 3 || evicted[0] != 0 || evicted[1] != 1 || evicted[2] != 2 {
		t.Errorf("evicted = %v, want [0 1 2]", evicted)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(2)); err == nil {
		t.Error("durable append after Close must fail")
	}
	names, _ := segmentNames(dir)
	if len(names) != 1 {
		t.Errorf("Close must not leave reopened segments: %v", names)
	}
}

func TestOnEvictUnregister(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	unregister := s.OnEvict(func([]int) { calls++ })
	if err := s.Append(mkBatch(50, 150)); err != nil { // evicts window 0
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	unregister()
	if err := s.Append(mkBatch(250)); err != nil { // evicts window 1
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("unregistered hook still fired (calls = %d)", calls)
	}
}
