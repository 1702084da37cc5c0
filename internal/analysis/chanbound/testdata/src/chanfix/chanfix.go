// Package chanfix is the chanbound golden fixture.
package chanfix

// defaultDepth is a reviewable, named bound.
const defaultDepth = 64

// Config carries a tunable queue depth.
type Config struct {
	QueueDepth int
}

// Event mirrors the subscription event payload.
type Event struct{ Seq uint64 }

// Feed reproduces PR 6's slow-consumer regression shape: handing every
// subscriber an unbuffered channel lets one stalled consumer wedge the
// broadcaster.
type Feed struct {
	subs []chan Event
}

// Subscribe with an unbuffered per-subscriber channel: flagged.
func (f *Feed) Subscribe() <-chan Event {
	ch := make(chan Event) // want `unbuffered channel in library code`
	f.subs = append(f.subs, ch)
	return ch
}

// SubscribeBounded names the bound: fine.
func (f *Feed) SubscribeBounded(cfg Config) <-chan Event {
	ch := make(chan Event, cfg.QueueDepth)
	f.subs = append(f.subs, ch)
	return ch
}

func shapes(cfg Config) {
	_ = make(chan int)     // want `unbuffered channel in library code`
	_ = make(chan int, 16) // want `channel capacity is a magic number`
	_ = make(chan int, defaultDepth)
	_ = make(chan int, cfg.QueueDepth)
	_ = make(chan int, 2*defaultDepth) // arithmetic over a named bound: fine

	//bounded: rendezvous with exactly one worker; both sides are select-guarded
	done := make(chan struct{})
	_ = done

	errs := make(chan error, 1) //bounded: one writer, capacity matches the single result
	_ = errs

	// A named capacity needs no justification: the directive is flagged.
	_ = make(chan int, cfg.QueueDepth) /* want `unused directive: //bounded: suppresses no chanbound finding` */ //bounded: config depth

	//bounded:
	bare := make(chan int) // want `unbuffered channel in library code`
	_ = bare

	_ = make([]int, 8)    // make of a non-channel: fine
	_ = make(map[int]int) // ditto
}
