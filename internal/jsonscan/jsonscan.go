// Package jsonscan reads JSON text in one pass, without reflection and
// without copying: a value comes back as a sub-slice of the input. It
// accepts exactly the texts encoding/json accepts — whitespace, escapes,
// invalid UTF-8 inside strings, nesting up to 10000 levels — so a caller that
// maps values the way json.Unmarshal would takes exactly the bodies
// json.Unmarshal takes. The serving stack's request envelopes
// (internal/wire) and the dense vector decoder (internal/dataset) read
// through it.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// maxDepth is encoding/json's nesting limit: the 10001st open bracket is
// refused.
const maxDepth = 10000

// Reader walks one JSON text front to back. Every method skips the
// whitespace before its token; a method that fails leaves the Reader
// unusable.
type Reader struct {
	data  []byte
	off   int
	depth int
}

// NewReader starts a walk over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

var errEnd = errors.New("unexpected end of JSON input")

// syntax reports the byte at the read offset as out of place.
func (r *Reader) syntax(context string) error {
	if r.off >= len(r.data) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", r.data[r.off], context, r.off)
}

func (r *Reader) space() {
	d, i := r.data, r.off
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	r.off = i
}

// peek returns the first byte of the next token, 0 at the end of input.
func (r *Reader) peek() byte {
	r.space()
	if r.off < len(r.data) {
		return r.data[r.off]
	}
	return 0
}

// Null consumes a null literal if one is next and reports whether it did.
func (r *Reader) Null() bool {
	if r.peek() == 'n' && bytes.HasPrefix(r.data[r.off:], []byte("null")) {
		r.off += len("null")
		return true
	}
	return false
}

// End requires that nothing but whitespace follows.
func (r *Reader) End() error {
	if r.space(); r.off < len(r.data) {
		return r.syntax("after top-level value")
	}
	return nil
}

// Value validates the next value, whatever its type, and returns its bytes.
// The slice aliases the input, capped so an append cannot write into it.
func (r *Reader) Value() ([]byte, error) {
	r.space()
	start := r.off
	if err := r.skip(); err != nil {
		return nil, err
	}
	return r.data[start:r.off:r.off], nil
}

func (r *Reader) skip() error {
	switch c := r.peek(); {
	case c == '{':
		return r.Object(func([]byte) error { return r.skip() })
	case c == '[':
		return r.Array(r.skip)
	case c == '"':
		_, err := r.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := r.Number()
		return err
	case c == 't':
		return r.literal("true")
	case c == 'f':
		return r.literal("false")
	case c == 'n':
		return r.literal("null")
	}
	return r.syntax("looking for beginning of value")
}

func (r *Reader) literal(lit string) error {
	for i := range len(lit) {
		if r.off >= len(r.data) || r.data[r.off] != lit[i] {
			return r.syntax("in literal " + lit)
		}
		r.off++
	}
	return nil
}

// Number validates the next value as a JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (r *Reader) Number() ([]byte, error) {
	r.space()
	d, start := r.data, r.off
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, r.badNumber(i)
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || d[i] < '0' || d[i] > '9' {
			return nil, r.badNumber(i)
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			return nil, r.badNumber(i)
		}
		i = digits(d, i)
	}
	r.off = i
	return d[start:i:i], nil
}

func (r *Reader) badNumber(at int) error {
	r.off = at
	return r.syntax("in numeric literal")
}

func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// str validates a string token and returns it quotes included: no control
// characters, only the escapes \" \\ \/ \b \f \n \r \t \uXXXX; any other
// byte, invalid UTF-8 included, stands for itself.
func (r *Reader) str() ([]byte, error) {
	d, start := r.data, r.off
	i := start + 1
	for {
		for i < len(d) && d[i] >= 0x20 && d[i] != '"' && d[i] != '\\' {
			i++
		}
		if i >= len(d) {
			r.off = i
			return nil, errEnd
		}
		switch d[i] {
		case '"':
			r.off = i + 1
			return d[start:r.off:r.off], nil
		case '\\':
			if i+1 >= len(d) {
				r.off = i + 1
				return nil, errEnd
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
				continue
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(d) {
						r.off = j
						return nil, errEnd
					}
					if !isHex(d[j]) {
						r.off = j
						return nil, r.syntax(`in \u hexadecimal character escape`)
					}
				}
				i += 6
				continue
			}
			r.off = i + 1
			return nil, r.syntax("in string escape code")
		default:
			r.off = i
			return nil, r.syntax("in string literal")
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// errType reports a value of the wrong JSON type for where it stands.
func (r *Reader) errType(want string) error {
	if r.off >= len(r.data) {
		return errEnd
	}
	return fmt.Errorf("found %q where %s must begin at offset %d", r.data[r.off], want, r.off)
}

func (r *Reader) open() error {
	if r.depth++; r.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	r.off++
	return nil
}

// Array reads the array that must come next (any other value is a type
// error), calling elem once per element; elem must consume exactly that
// element through the Reader.
func (r *Reader) Array(elem func() error) error {
	if r.peek() != '[' {
		return r.errType("array")
	}
	if err := r.open(); err != nil {
		return err
	}
	if r.peek() != ']' {
		for {
			if err := elem(); err != nil {
				return err
			}
			if c := r.peek(); c == ']' {
				break
			} else if c != ',' {
				return r.syntax("after array element")
			}
			r.off++
		}
	}
	r.off++
	r.depth--
	return nil
}

// Object reads the object that must come next (any other value is a type
// error), calling member once per member with its key token, quotes and
// escapes included; member must consume exactly the member's value through
// the Reader.
func (r *Reader) Object(member func(key []byte) error) error {
	if r.peek() != '{' {
		return r.errType("object")
	}
	if err := r.open(); err != nil {
		return err
	}
	if r.peek() != '}' {
		for {
			if r.peek() != '"' {
				return r.syntax("looking for beginning of object key string")
			}
			key, err := r.str()
			if err != nil {
				return err
			}
			if r.peek() != ':' {
				return r.syntax("after object key")
			}
			r.off++
			if err := member(key); err != nil {
				return err
			}
			if c := r.peek(); c == '}' {
				break
			} else if c != ',' {
				return r.syntax("after object key:value pair")
			}
			r.off++
		}
	}
	r.off++
	r.depth--
	return nil
}

// Field resolves an object key token against the field names of a struct
// the way json.Unmarshal does: the unescaped key equal to a name, else equal
// under Unicode case folding (so "QUERY" and "K" — the Kelvin sign —
// select "query" and "k"). It returns the index into names, or -1.
func Field(key []byte, names []string) int {
	name := key[1 : len(key)-1]
	if !plain(name) {
		var s string
		if json.Unmarshal(key, &s) != nil {
			return -1
		}
		name = []byte(s)
	}
	for i, n := range names {
		if string(name) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(name, []byte(n)) {
			return i
		}
	}
	return -1
}

// plain reports a key body that is its own unescaped form: ASCII without a
// backslash.
func plain(b []byte) bool {
	for _, c := range b {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}
