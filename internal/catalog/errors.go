package catalog

import (
	"errors"
	"fmt"
)

// Sentinel error kinds for the catalog package. Callers match with
// errors.Is; every error constructed here unwraps to exactly one of these,
// so no caller parses message strings.
var (
	// ErrEmptyName rejects a file with no name.
	ErrEmptyName = errors.New("empty file name")
	// ErrNegativeSize rejects a file with a negative length.
	ErrNegativeSize = errors.New("negative size")
	// ErrDuplicate rejects registering a name twice.
	ErrDuplicate = errors.New("duplicate file")
	// ErrNotFound reports a lookup for a file the source does not hold.
	ErrNotFound = errors.New("no such file")
	// ErrPathEscape rejects a name that escapes a directory source's root.
	ErrPathEscape = errors.New("path escapes source root")
	// ErrTruncated reports a journal that ends mid-record — the shape a
	// crash during an append leaves behind. Replay surfaces it instead of
	// guessing at the partial tail.
	ErrTruncated = errors.New("journal truncated")
	// ErrCorrupt reports a journal record that decodes to an impossible
	// value (unknown op, length overflowing the buffer bound).
	ErrCorrupt = errors.New("journal corrupt")
)

// Error is a typed catalog error: a sentinel kind plus the file (or node,
// or byte offset rendered into Detail) it concerns. It unwraps to its kind,
// so errors.Is(err, catalog.ErrDuplicate) works through any wrapping.
type Error struct {
	// Kind is the sentinel this error is an instance of.
	Kind error
	// File names the file or path involved ("" when not file-scoped).
	File string
	// Detail carries extra context (e.g. the byte offset of a truncated
	// journal record).
	Detail string
}

func newError(kind error, file string) *Error { return &Error{Kind: kind, File: file} }

// Error renders "catalog: <kind>" with the file and detail folded in. The
// wording for the file-validation kinds matches the package's historic
// fmt.Errorf messages so operator-facing output is unchanged.
func (e *Error) Error() string {
	switch {
	case e.Kind == ErrEmptyName:
		return "catalog: empty file name"
	case e.Kind == ErrNegativeSize:
		return fmt.Sprintf("catalog: negative size for %q", e.File)
	case e.Kind == ErrDuplicate:
		return fmt.Sprintf("catalog: duplicate file %q", e.File)
	case e.Kind == ErrNotFound:
		return fmt.Sprintf("catalog: no such file %q", e.File)
	case e.Kind == ErrPathEscape:
		return fmt.Sprintf("catalog: path %q escapes source root", e.File)
	case e.Detail != "":
		return fmt.Sprintf("catalog: %v: %s", e.Kind, e.Detail)
	default:
		return fmt.Sprintf("catalog: %v", e.Kind)
	}
}

// Unwrap exposes the sentinel kind to errors.Is/errors.As.
func (e *Error) Unwrap() error { return e.Kind }
