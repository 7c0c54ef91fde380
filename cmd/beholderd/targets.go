package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"unsafe"
)

// targetList is a campaign request's explicit target set: a JSON array
// of address strings, decoded straight into addresses — no string per
// target — and encoded back by appending them.
//
// It accepts exactly the arrays a []string accepts (null elements
// included, as empty strings) and yields the addresses that
// netip.ParseAddr makes of those strings. An element that is a string
// but not an address does not fail the decode: the first one is kept in
// bad and err, and submit refuses the request with them at the point
// where it checks targets — after the tenant, before the vantage.
type targetList struct {
	addrs []netip.Addr
	bad   string
	err   error
}

// IsZero lets omitzero drop an empty list from an encoded spec.
func (t targetList) IsZero() bool { return len(t.addrs) == 0 }

var (
	stringType      = reflect.TypeFor[string]()
	stringSliceType = reflect.TypeFor[[]string]()
	errMalformed    = errors.New("targets: malformed JSON array")
	null            = []byte("null")
)

// UnmarshalJSON decodes the array in one pass. The address slice is
// sized by an upper bound on the element count, so a body costs the
// same few allocations whatever its length; only elements holding an
// escape or a non-ASCII byte are decoded into a string first, like
// encoding/json would.
func (t *targetList) UnmarshalJSON(b []byte) error {
	*t = targetList{}
	i := skipSpace(b, 0)
	if i == len(b) {
		return errMalformed
	}
	switch {
	case bytes.HasPrefix(b[i:], null): // leaves the list empty, as it would a slice
		return nil
	case b[i] == '[':
	default:
		return &json.UnmarshalTypeError{Value: jsonKind(b[i]), Type: stringSliceType, Offset: int64(i)}
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return nil
	}
	// Every element but the first follows a comma.
	t.addrs = make([]netip.Addr, 0, bytes.Count(b, []byte{','})+1)
	for {
		if i = skipSpace(b, i); i == len(b) {
			return errMalformed
		}
		switch {
		case b[i] == '"':
			end, plain := stringEnd(b, i)
			if end < 0 {
				return errMalformed
			}
			t.add(b[i:end], plain)
			i = end
		case bytes.HasPrefix(b[i:], null): // decodes as the empty string
			t.add(nil, true)
			i += len(null)
		default:
			return &json.UnmarshalTypeError{Value: jsonKind(b[i]), Type: stringType, Offset: int64(i)}
		}
		if i = skipSpace(b, i); i == len(b) {
			return errMalformed
		}
		switch b[i] {
		case ',':
			i++
		case ']':
			return nil
		default:
			return errMalformed
		}
	}
}

// add parses one element: quoted is the JSON string with its quotes (nil
// for null), and plain reports that it holds no escape and no byte
// outside ASCII, so its text is its content.
func (t *targetList) add(quoted []byte, plain bool) {
	var s string
	switch {
	case quoted == nil:
	case plain:
		if n := len(quoted) - 2; n > 0 {
			// ParseAddr keeps nothing of its input in an address it
			// returns (a zone is interned by copy), so the request bytes
			// are parsed in place; only a refusal copies them, below.
			s = unsafe.String(&quoted[1], n)
		}
	default:
		s = unquote(quoted)
	}
	a, err := netip.ParseAddr(s)
	if err == nil {
		t.addrs = append(t.addrs, a)
		return
	}
	if t.err == nil {
		t.bad = strings.Clone(s)
		_, t.err = netip.ParseAddr(t.bad)
	}
}

// unquote decodes a JSON string the way encoding/json does, invalid
// UTF-8 becoming U+FFFD.
func unquote(quoted []byte) string {
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		return string(quoted)
	}
	return s
}

// MarshalJSON writes the addresses as a JSON array of strings.
func (t targetList) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 2+len(t.addrs)*len(`"2001:db8:ffff:ffff::ffff",`))
	buf = append(buf, '[')
	for i, a := range t.addrs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if a.Zone() != "" {
			// A zone is free text: let encoding/json quote it.
			q, err := json.Marshal(a.String())
			if err != nil {
				return nil, err
			}
			buf = append(buf, q...)
			continue
		}
		buf = append(buf, '"')
		buf = a.AppendTo(buf)
		buf = append(buf, '"')
	}
	return append(buf, ']'), nil
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index just past the JSON string opening at
// b[i], or -1 when it is unterminated, and whether the string holds
// neither an escape nor a byte outside ASCII.
func stringEnd(b []byte, i int) (end int, plain bool) {
	plain = true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1, plain
		case c == '\\':
			plain = false
			j++
		case c >= 0x80:
			plain = false
		}
	}
	return -1, false
}

// jsonKind names the JSON value starting with c the way encoding/json's
// type errors do.
func jsonKind(c byte) string {
	switch c {
	case '"':
		return "string"
	case '[':
		return "array"
	case '{':
		return "object"
	case 't', 'f':
		return "bool"
	}
	return "number"
}
