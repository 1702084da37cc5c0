// Package errfix is the errcmp golden fixture.
package errfix

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrNoCover and ErrStopped are package-level sentinels.
var (
	ErrNoCover = errors.New("no cover")
	ErrStopped = errors.New("stopped")
)

// notAnError is package-level but not an error: never flagged.
var notAnError = 42

func compare(err error) bool {
	if err == ErrNoCover { // want `sentinel error ErrNoCover compared with ==`
		return true
	}
	if err != ErrStopped { // want `sentinel error ErrStopped compared with !=`
		return false
	}
	if err == io.EOF { // want `sentinel error EOF compared with ==`
		return true
	}
	return errors.Is(err, ErrNoCover) // the idiomatic form: fine
}

func compareAllowed(err error) bool {
	//errcmp:allow err comes straight from the decoder, never wrapped
	return err == io.EOF
}

func bareDirective(err error) bool {
	//errcmp:allow
	return err == ErrStopped // want `sentinel error ErrStopped compared with ==`
}

func localErrIsNotASentinel() bool {
	local := errors.New("local")
	probe := func() error { return local }
	return probe() == local // locals are identity-safe: fine
}

func nonErrorComparison(n int) bool {
	return n == notAnError // not an error value: fine
}

func wrap(key string) error {
	return fmt.Errorf("lookup %q: %w", key, ErrNoCover) // %w keeps Is working: fine
}

func wrapBadly(key string) error {
	return fmt.Errorf("lookup %q: %v", key, ErrNoCover) // want `sentinel error ErrNoCover passed to fmt\.Errorf as %v`
}

func wrapString(key string) error {
	return fmt.Errorf("lookup %s failed: %s", key, ErrStopped) // want `sentinel error ErrStopped passed to fmt\.Errorf as %s`
}

func wrapAllowed(key string) error {
	return fmt.Errorf("log-only context: %v",
		//errcmp:allow message is for logs; callers never Is-match it
		ErrStopped)
}

// ErrorResponse and BatchQueryItem stand in for the wire structs of the
// same names: a failure's text plus the code that types it.
type ErrorResponse struct {
	Msg  string
	Code uint8
}

type BatchQueryItem struct {
	Err  string
	Code uint8
}

func routeOnText(er ErrorResponse, it *BatchQueryItem) bool {
	if strings.HasPrefix(er.Msg, "replica:") { // want `ErrorResponse\.Msg is matched by substring`
		return true
	}
	if strings.Contains(it.Err, "epoch mismatch") { // want `BatchQueryItem\.Err is matched by substring`
		return true
	}
	return strings.HasSuffix((er.Msg), "unreachable") // want `ErrorResponse\.Msg is matched by substring`
}

func routeOnCode(er ErrorResponse, line string) bool {
	// Codes steer; text that is not a wire failure's may be matched.
	return er.Code == 3 || strings.HasPrefix(line, "id: ") || strings.Contains(fmt.Sprint(er.Code), "3")
}

func textAllowed(er ErrorResponse) bool {
	//errcmp:allow pre-code peer in a migration test; only its text exists
	return strings.Contains(er.Msg, "legacy")
}
