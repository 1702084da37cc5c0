package server

import (
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tuple"
)

// NewMirrorEngine builds the engine a replica mirror runs on: one
// volatile in-memory store per pollutant with the primary's window
// length, retention and model configuration — so replaying the primary's
// committed ingests converges to byte-equal answers — and no background
// cover builders. A mirror is read only on failover or not at all
// (promotion replays its log into the node's own engine), so it is lazy
// twice over. The cluster node keeps a mirror as its replication log
// alone and calls the factory that runs this on the mirror's first
// failover read (or subscription re-home), replaying the log into the new
// engine; frames after that apply to both. And an applied frame just
// drops the touched windows' covers: a window's cover is built when it
// is first read. The first failover read of an origin therefore pays one
// log replay, and of each window one build. Mirrors are not persisted —
// a restarted replica re-syncs from the primary's replication log or a
// snapshot.
func NewMirrorEngine(pollutants []tuple.Pollutant, windowLength float64, retain int, cfg core.Config) (*Engine, error) {
	stores := make(map[tuple.Pollutant]*store.Store, len(pollutants))
	closeStores := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	for _, pol := range pollutants {
		st, err := store.Open(store.Config{WindowLength: windowLength, Retain: retain})
		if err != nil {
			closeStores()
			return nil, err
		}
		stores[pol] = st
	}
	e, err := NewMultiEngineOpts(stores, cfg, Options{
		Scheduler: core.SchedulerConfig{Workers: -1},
	})
	if err != nil {
		closeStores()
		return nil, err
	}
	return e, nil
}
