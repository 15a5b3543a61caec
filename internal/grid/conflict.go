package grid

import (
	"errors"
	"fmt"
)

// ErrConflict matches any *ConflictError via errors.Is: a prepare refused
// because the site's availability moved between the broker's probe and its
// prepare — another broker (or an expiry) won the race for servers that the
// probed epoch still showed free. Unlike a plain capacity refusal, the same
// window may still be feasible with a different split, so the broker's
// conflict-retry path re-probes only the contended site instead of burning
// a Δt ladder rung.
var ErrConflict = errors.New("grid: prepare conflict (capacity taken since probe)")

// ConflictError reports a prepare lost to optimistic concurrency. The site
// returns it only when the caller proved it probed first (a non-zero probed
// epoch) and the site's epoch has moved since: the refusal is then "taken
// since your probe", not "never had capacity".
type ConflictError struct {
	Site  string
	Epoch uint64 // the site's current epoch at refusal time
	Err   error  // underlying capacity refusal, when known
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("grid %s: prepare conflict (probed epoch superseded by %d)", e.Site, e.Epoch)
	}
	return fmt.Sprintf("grid %s: prepare conflict (probed epoch superseded by %d): %v", e.Site, e.Epoch, e.Err)
}

// Unwrap exposes the underlying refusal.
func (e *ConflictError) Unwrap() error { return e.Err }

// Is reports whether target is ErrConflict.
func (e *ConflictError) Is(target error) bool { return target == ErrConflict }

// asConflict is errors.As for a *ConflictError, allocating nothing for a nil err.
func asConflict(err error) *ConflictError {
	if err == nil {
		return nil
	}
	var c *ConflictError
	errors.As(err, &c)
	return c
}
