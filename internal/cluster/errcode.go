package cluster

import (
	"errors"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/wire"
)

// ErrReplicaMiss marks a replica read this node cannot serve — it does
// not replicate, or holds no mirror of the named origin — as opposed to
// a mirror's genuine answer (a value, or a data error such as
// ErrOutOfWindow). Failover paths skip a miss and try the next replica.
var ErrReplicaMiss = errors.New("replica: cannot answer for that origin")

// wireCodes pairs every sentinel that survives the wire with its code.
// It is the only place either direction is written: CodeOf encodes with
// it, ErrorFromWire decodes with it, and nothing reads a peer's message
// text. Rows are in ascending code order, which is also match priority:
// a partial ingest's chain may hold retryable slice failures (saturated,
// unreachable) and must never look retryable.
var wireCodes = []struct {
	code wire.ErrCode
	err  error
}{
	{wire.CodePartialIngest, ErrPartialIngest},
	{wire.CodeStaleEpoch, ErrStaleEpoch},
	{wire.CodeTooLarge, ErrTooLarge},
	{wire.CodeOutOfWindow, query.ErrOutOfWindow},
	{wire.CodeNoCover, query.ErrNoCover},
	{wire.CodeUnknownPollutant, query.ErrUnknownPollutant},
	{wire.CodeSaturated, ingest.ErrSaturated},
	{wire.CodeInvalidBatch, ingest.ErrInvalidBatch},
	{wire.CodePipelineClosed, ingest.ErrPipelineClosed},
	{wire.CodeNodeUnreachable, ErrNodeUnreachable},
	{wire.CodeReplicaMiss, ErrReplicaMiss},
}

// CodeOf returns the wire code of the first table sentinel in err's
// chain, or wire.CodeNone for an untyped error.
func CodeOf(err error) wire.ErrCode {
	for _, row := range wireCodes {
		if errors.Is(err, row.err) {
			return row.code
		}
	}
	return wire.CodeNone
}

// WireError is the response that carries err to a peer: its text for
// humans, its code for programs.
func WireError(err error) wire.ErrorResponse {
	return wire.ErrorResponse{Msg: err.Error(), Code: CodeOf(err)}
}

// ErrorFromWire rebuilds a peer's failure (an ErrorResponse or a failed
// BatchQueryItem) as a Go error that prints msg verbatim and matches the
// code's sentinel with errors.Is. An unknown or zero code yields a plain
// error, so a newer peer's codes degrade to untyped.
func ErrorFromWire(code wire.ErrCode, msg string) error {
	for _, row := range wireCodes {
		if row.code == code {
			return &wireError{msg: msg, sentinel: row.err}
		}
	}
	return errors.New(msg)
}

// wireError is a failure that crossed the wire: the peer's text plus the
// sentinel its code named.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// responseCode returns the code of an ErrorResponse, wire.CodeNone for
// any other message.
func responseCode(m wire.Message) wire.ErrCode {
	er, _ := m.(wire.ErrorResponse)
	return er.Code
}
