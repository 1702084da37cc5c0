package core

import (
	"sort"
	"testing"
)

func TestMissingCovers(t *testing.T) {
	st := fillStore(t, 100, 4, 30)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(3)})
	if got := m.MissingCovers(); len(got) != 4 {
		t.Fatalf("MissingCovers = %v, want all 4 windows", got)
	}
	if _, err := m.CoverFor(1); err != nil {
		t.Fatal(err)
	}
	// Window 1's cover starts from window 0's, which the read built too.
	got := m.MissingCovers()
	sort.Ints(got)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("MissingCovers = %v, want [2 3]", got)
	}
}

// TestSchedulerWarmPrime is the restart scenario: a maintainer over a
// recovered store with no cached covers is primed in the background so
// queries find covers already built.
func TestSchedulerWarmPrime(t *testing.T) {
	st := fillStore(t, 100, 5, 30)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(4)})
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()

	if n := s.WarmPrime(m); n != 5 {
		t.Fatalf("WarmPrime queued %d builds, want 5", n)
	}
	s.Wait()
	if got := m.CachedWindows(); len(got) != 5 {
		t.Fatalf("CachedWindows = %v, want all 5 windows prebuilt", got)
	}
	// A second prime finds nothing missing.
	if n := s.WarmPrime(m); n != 0 {
		t.Errorf("second WarmPrime queued %d builds, want 0", n)
	}
	if stats := s.Stats(); stats.Built != 5 {
		t.Errorf("Stats = %+v, want 5 built", stats)
	}
	// Nil scheduler and nil maintainer are inert.
	var nilSched *Scheduler
	if n := nilSched.WarmPrime(m); n != 0 {
		t.Errorf("nil scheduler primed %d", n)
	}
	if n := s.WarmPrime(nil); n != 0 {
		t.Errorf("nil maintainer primed %d", n)
	}
}
