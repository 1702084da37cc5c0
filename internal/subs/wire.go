package subs

import (
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Stream is the push stream a connection serves for f, in the shape
// proto.CtxStreamer returns: the ack naming the subscription, the loop
// that writes its events until the feed closes or a write fails, and the
// stop that closes the feed when the connection ends, which is how every
// streamed subscription ends. ok is always true.
func (f *Feed) Stream() (ack wire.Message, run func(emit func(wire.Message) error), stop func(), ok bool) {
	run = func(emit func(wire.Message) error) {
		for ev := range f.Events() {
			if emit(PushFromEvent(f.ID(), ev)) != nil {
				return
			}
		}
	}
	return wire.SubscribeAck{ID: f.ID(), Points: uint16(f.Len())}, run, func() { _ = f.Close() }, true
}

// Refuse is the push stream of a subscribe frame that opened nothing:
// resp (an ErrorResponse) as its ack, and nothing to run or stop. ok is
// always true.
func Refuse(resp wire.Message) (ack wire.Message, run func(emit func(wire.Message) error), stop func(), ok bool) {
	return resp, func(func(wire.Message) error) {}, func() {}, true
}

// PushFromEvent converts a push event into its wire frame for
// subscription id.
func PushFromEvent(id uint64, ev Event) wire.Push {
	p := wire.Push{ID: id, Seq: ev.Seq, Resync: ev.Resync, Err: ev.Err}
	if len(ev.Points) > 0 {
		p.Points = make([]wire.PushPoint, len(ev.Points))
		for i, pt := range ev.Points {
			p.Points[i] = wire.PushPoint{Index: uint16(pt.Index), Value: pt.Value, Err: pt.Err}
		}
	}
	return p
}

// EventFromPush converts a received wire push back into an event.
func EventFromPush(p wire.Push) Event {
	ev := Event{Seq: p.Seq, Resync: p.Resync, Err: p.Err}
	if len(p.Points) > 0 {
		ev.Points = make([]PointValue, len(p.Points))
		for i, pt := range p.Points {
			ev.Points[i] = PointValue{Index: int(pt.Index), Value: pt.Value, Err: pt.Err}
		}
	}
	return ev
}

// RequestFromWire converts a wire subscribe request into the point set
// the registry takes.
func RequestFromWire(m wire.SubscribeRequest) []query.Request {
	pts := make([]query.Request, len(m.Points))
	for i, p := range m.Points {
		pts[i] = query.Request{T: p.T, X: p.X, Y: p.Y, Pollutant: m.Pollutant}
	}
	return pts
}

// WireFromRequests converts a point set into the wire subscribe
// request a router (or client) sends to a shard owner.
func WireFromRequests(pol tuple.Pollutant, pts []query.Request) wire.SubscribeRequest {
	m := wire.SubscribeRequest{Pollutant: pol, Points: make([]wire.SubPoint, len(pts))}
	for i, p := range pts {
		m.Points[i] = wire.SubPoint{T: p.T, X: p.X, Y: p.Y}
	}
	return m
}
