// Package params implements the Chronos parameter type system.
//
// Chronos Control lets a System under Evaluation (SuE) declare the
// parameters its evaluation client understands (paper §2.2, "Parameter
// types include Boolean, check box, and value types as well as intervals
// and ratios"). An experiment then assigns every declared parameter either
// a fixed value or a sweep over several values; the cartesian product of
// all sweeps is expanded into the individual jobs of an evaluation.
//
// The package is deliberately free of dependencies on the rest of the
// toolkit, but for the leaf jsonw, so that storage, REST, and UI layers
// can all share one definition of what a parameter is.
//
// A Value's JSON wire form is an object with the kind's name and the one
// payload member that kind takes, {"kind":"int","int":1400}, with none
// for an invalid value or an empty list or ratio. Job rows, WAL records,
// snapshots and REST bodies carry it, so its bytes are fixed: they are
// what encoding/json writes for the valueJSON struct. Value writes them
// itself, and reads its own canonical form (no whitespace, members in
// that order, strings of printable ASCII without escapes, numbers that
// fit) without encoding/json; every other input, such as a hand-typed
// settings body, goes to the general decoder, encoding/json into
// valueJSON, and both give the same value or the same error.
package params

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"chronos/internal/jsonw"
)

// Kind enumerates the concrete runtime types a parameter value can take.
type Kind int

const (
	// KindInvalid is the zero Kind; it never validates.
	KindInvalid Kind = iota
	// KindBool holds a boolean value.
	KindBool
	// KindInt holds a 64-bit signed integer.
	KindInt
	// KindFloat holds a 64-bit float.
	KindFloat
	// KindString holds an arbitrary string.
	KindString
	// KindStringList holds an ordered list of strings (checkbox selections).
	KindStringList
	// KindRatio holds a list of non-negative integer parts, e.g. a
	// read/update ratio 95:5. Parts are interpreted relative to their sum.
	KindRatio
)

// kindNames is indexed by Kind.
var kindNames = [...]string{
	KindInvalid:    "invalid",
	KindBool:       "bool",
	KindInt:        "int",
	KindFloat:      "float",
	KindString:     "string",
	KindStringList: "stringlist",
	KindRatio:      "ratio",
}

// name returns the kind's name, and false for a kind outside the enum.
func (k Kind) name() (string, bool) {
	if k < 0 || int(k) >= len(kindNames) {
		return "", false
	}
	return kindNames[k], true
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := k.name(); ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString parses the name produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	if k, ok := kindNamed(s); ok {
		return k, nil
	}
	return KindInvalid, fmt.Errorf("params: unknown kind %q", s)
}

// kindNamed looks a kind up by its name.
func kindNamed[T string | []byte](name T) (Kind, bool) {
	for k, n := range kindNames {
		if string(name) == n {
			return Kind(k), true
		}
	}
	return KindInvalid, false
}

// MarshalText encodes the kind as its name, the form a definition's
// valueKind carries on the wire.
func (k Kind) MarshalText() ([]byte, error) {
	if s, ok := k.name(); ok {
		return []byte(s), nil
	}
	return nil, fmt.Errorf("params: unknown kind %d", int(k))
}

// UnmarshalText decodes a kind name; an empty one is no kind, as an
// omitted valueKind is.
func (k *Kind) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*k = KindInvalid
		return nil
	}
	kind, err := KindFromString(string(b))
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Value is a tagged union holding one concrete parameter value.
// The zero Value has KindInvalid and is not a valid assignment.
//
// Values are small and passed by value throughout the toolkit.
type Value struct {
	kind  Kind
	b     bool
	i     int64
	f     float64
	s     string
	list  []string
	ratio []int
}

// Bool returns a boolean Value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float Value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string Value. The trailing underscore avoids a clash
// with the Stringer method.
func String_(v string) Value { return Value{kind: KindString, s: v} }

// StringList returns a list-of-strings Value; the slice is copied.
func StringList(v ...string) Value {
	cp := make([]string, len(v))
	copy(cp, v)
	return Value{kind: KindStringList, list: cp}
}

// Ratio returns a ratio Value from its integer parts; the slice is copied.
func Ratio(parts ...int) Value {
	cp := make([]int, len(parts))
	copy(cp, parts)
	return Value{kind: KindRatio, ratio: cp}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds a usable kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsBool returns the boolean payload; ok is false on kind mismatch.
func (v Value) AsBool() (value, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer payload; it also widens from bool (0/1).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsFloat returns the float payload; it widens from int.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false on kind mismatch.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsStringList returns a copy of the list payload.
func (v Value) AsStringList() ([]string, bool) {
	if v.kind != KindStringList {
		return nil, false
	}
	cp := make([]string, len(v.list))
	copy(cp, v.list)
	return cp, true
}

// AsRatio returns a copy of the ratio parts.
func (v Value) AsRatio() ([]int, bool) {
	if v.kind != KindRatio {
		return nil, false
	}
	cp := make([]int, len(v.ratio))
	copy(cp, v.ratio)
	return cp, true
}

// RatioFraction returns part i of a ratio value normalised to [0,1].
// It returns 0 if the value is not a ratio, the index is out of range, or
// the parts sum to zero.
func (v Value) RatioFraction(i int) float64 {
	if v.kind != KindRatio || i < 0 || i >= len(v.ratio) {
		return 0
	}
	sum := 0
	for _, p := range v.ratio {
		sum += p
	}
	if sum == 0 {
		return 0
	}
	return float64(v.ratio[i]) / float64(sum)
}

// String renders a stable, human-readable encoding of the value. The
// encoding is used in job names and archives, so it must be deterministic:
// equal values always produce equal strings.
func (v Value) String() string {
	switch v.kind {
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindStringList:
		return strings.Join(v.list, ",")
	case KindRatio:
		parts := make([]string, len(v.ratio))
		for i, p := range v.ratio {
			parts[i] = strconv.Itoa(p)
		}
		return strings.Join(parts, ":")
	default:
		return "<invalid>"
	}
}

// Equal reports deep equality of two values including their kinds.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.b == o.b
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindStringList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if v.list[i] != o.list[i] {
				return false
			}
		}
		return true
	case KindRatio:
		if len(v.ratio) != len(o.ratio) {
			return false
		}
		for i := range v.ratio {
			if v.ratio[i] != o.ratio[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// valueJSON is the shape of a Value's wire form, as the general decoder
// reads it.
type valueJSON struct {
	Kind  string   `json:"kind"`
	Bool  *bool    `json:"bool,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"string,omitempty"`
	List  []string `json:"list,omitempty"`
	Ratio []int    `json:"ratio,omitempty"`
}

// MarshalJSON implements json.Marshaler with an explicit kind tag so that
// integers and floats survive a round-trip unambiguously. It writes,
// byte for byte, what encoding/json writes for valueJSON: the kind, then
// the one payload member the kind takes, none for an invalid value or an
// empty list or ratio. Stored rows, WAL records and snapshots hold these
// bytes.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.appendJSON(make([]byte, 0, 64))
}

// appendJSON appends the wire form of v to dst.
func (v Value) appendJSON(dst []byte) ([]byte, error) {
	dst = jsonw.String(append(dst, `{"kind":`...), v.kind.String())
	switch v.kind {
	case KindBool:
		dst = strconv.AppendBool(append(dst, `,"bool":`...), v.b)
	case KindInt:
		dst = strconv.AppendInt(append(dst, `,"int":`...), v.i, 10)
	case KindFloat:
		var err error
		if dst, err = appendFloat(append(dst, `,"float":`...), v.f); err != nil {
			return nil, err
		}
	case KindString:
		dst = jsonw.String(append(dst, `,"string":`...), v.s)
	case KindStringList:
		if len(v.list) > 0 {
			dst = append(dst, `,"list":`...)
			sep := byte('[')
			for _, s := range v.list {
				dst = jsonw.String(append(dst, sep), s)
				sep = ','
			}
			dst = append(dst, ']')
		}
	case KindRatio:
		if len(v.ratio) > 0 {
			dst = append(dst, `,"ratio":`...)
			sep := byte('[')
			for _, p := range v.ratio {
				dst = strconv.AppendInt(append(dst, sep), int64(p), 10)
				sep = ','
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// on, with an exponent's leading zero dropped (1e-7, not 1e-07). NaN and
// the infinities have no JSON form and return encoding/json's error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// UnmarshalJSON implements json.Unmarshaler. The form MarshalJSON writes
// is read directly (see parseCanonical); any other input, such as a
// hand-typed body with spaces, reordered members or escapes, goes to the
// general decoder, encoding/json into valueJSON. Both give the same value,
// or the same refusal, for every input.
func (v *Value) UnmarshalJSON(data []byte) error {
	if c, ok := parseCanonical(data); ok {
		*v = c
		return nil
	}
	return v.unmarshalGeneral(data)
}

// unmarshalGeneral decodes any JSON form of a Value through valueJSON.
func (v *Value) unmarshalGeneral(data []byte) error {
	var w valueJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, err := KindFromString(w.Kind)
	if err != nil {
		return err
	}
	switch k {
	case KindBool:
		if w.Bool == nil {
			return fmt.Errorf("params: bool value missing payload")
		}
		*v = Bool(*w.Bool)
	case KindInt:
		if w.Int == nil {
			return fmt.Errorf("params: int value missing payload")
		}
		*v = Int(*w.Int)
	case KindFloat:
		if w.Float == nil {
			return fmt.Errorf("params: float value missing payload")
		}
		*v = Float(*w.Float)
	case KindString:
		if w.Str == nil {
			return fmt.Errorf("params: string value missing payload")
		}
		*v = String_(*w.Str)
	case KindStringList:
		*v = StringList(w.List...)
	case KindRatio:
		*v = Ratio(w.Ratio...)
	default:
		*v = Value{}
	}
	return nil
}

// parseCanonical reads the form appendJSON writes, with no whitespace:
// {"kind":"<name>", then the one payload member that kind takes or none,
// then }. It reads the payloads it can check without encoding/json:
// integers in JSON's grammar that fit, numbers in JSON's grammar that
// strconv reads as a float64, strings of printable ASCII without a
// backslash, true and false, and lists and ratios of those. It checks
// all of that itself, since UnmarshalJSON may be handed bytes no one
// validated, and reports false for anything else.
func parseCanonical(data []byte) (Value, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"kind":`))
	if !ok {
		return Value{}, false
	}
	name, rest, ok := scanString(rest)
	if !ok {
		return Value{}, false
	}
	kind, ok := kindNamed(name)
	if !ok {
		return Value{}, false
	}
	body, ok := bytes.CutSuffix(rest, []byte("}"))
	if !ok {
		return Value{}, false
	}
	switch kind {
	case KindInvalid:
		return Value{}, len(body) == 0
	case KindBool:
		switch string(body) {
		case `,"bool":true`:
			return Bool(true), true
		case `,"bool":false`:
			return Bool(false), true
		}
	case KindInt:
		if p, ok := bytes.CutPrefix(body, []byte(`,"int":`)); ok {
			n, tail, ok := scanInt(p, 64)
			return Int(n), ok && len(tail) == 0
		}
	case KindFloat:
		if p, ok := bytes.CutPrefix(body, []byte(`,"float":`)); ok {
			f, tail, ok := scanFloat(p)
			return Float(f), ok && len(tail) == 0
		}
	case KindString:
		if p, ok := bytes.CutPrefix(body, []byte(`,"string":`)); ok {
			if s, tail, ok := scanString(p); ok && len(tail) == 0 {
				return String_(string(s)), true
			}
		}
	case KindStringList:
		list := []string{}
		if len(body) == 0 {
			return Value{kind: KindStringList, list: list}, true
		}
		if p, ok := bytes.CutPrefix(body, []byte(`,"list":`)); ok && scanArray(p, func(b []byte) ([]byte, bool) {
			s, tail, ok := scanString(b)
			list = append(list, string(s))
			return tail, ok
		}) {
			return Value{kind: KindStringList, list: list}, true
		}
	case KindRatio:
		parts := []int{}
		if len(body) == 0 {
			return Value{kind: KindRatio, ratio: parts}, true
		}
		if p, ok := bytes.CutPrefix(body, []byte(`,"ratio":`)); ok && scanArray(p, func(b []byte) ([]byte, bool) {
			n, tail, ok := scanInt(b, strconv.IntSize)
			parts = append(parts, int(n))
			return tail, ok
		}) {
			return Value{kind: KindRatio, ratio: parts}, true
		}
	}
	return Value{}, false
}

// scanString reads a JSON string of printable ASCII without escapes from
// the front of b, and returns its contents and what follows it.
func scanString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// scanInt reads a JSON integer that fits in bits from the front of b.
func scanInt(b []byte, bits int) (n int64, rest []byte, ok bool) {
	end, integer := numberLen(b)
	if end == 0 || !integer {
		return 0, nil, false
	}
	n, err := strconv.ParseInt(string(b[:end]), 10, bits)
	return n, b[end:], err == nil
}

// scanFloat reads a JSON number that strconv takes as a float64 from the
// front of b.
func scanFloat(b []byte) (f float64, rest []byte, ok bool) {
	end, _ := numberLen(b)
	if end == 0 {
		return 0, nil, false
	}
	f, err := strconv.ParseFloat(string(b[:end]), 64)
	return f, b[end:], err == nil
}

// numberLen returns the length of the JSON number at the front of b
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), 0 when there is none,
// and whether it has neither fraction nor exponent.
func numberLen(b []byte) (end int, integer bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return 0, false
		}
		i, integer = k, false
	}
	return i, integer
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanArray reads a JSON array that is all of b, calling elem to read
// each element from the front of what is left.
func scanArray(b []byte, elem func([]byte) (rest []byte, ok bool)) bool {
	if len(b) < 2 || b[0] != '[' {
		return false
	}
	if b = b[1:]; b[0] == ']' {
		return len(b) == 1
	}
	for {
		var ok bool
		if b, ok = elem(b); !ok || len(b) == 0 {
			return false
		}
		switch b[0] {
		case ']':
			return len(b) == 1
		case ',':
			b = b[1:]
		default:
			return false
		}
	}
}

// Assignment maps parameter names to concrete values: the full
// configuration of a single job.
type Assignment map[string]Value

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	cp := make(Assignment, len(a))
	for k, v := range a {
		cp[k] = v
	}
	return cp
}

// AppendJSON appends a's JSON to dst: what json.Marshal writes for it,
// byte for byte — null for a nil assignment, the names in sorted order,
// each value as MarshalJSON writes it. It fails where MarshalJSON fails
// (a float with no JSON form).
func (a Assignment) AppendJSON(dst []byte) ([]byte, error) {
	if a == nil {
		return append(dst, "null"...), nil
	}
	var buf [8]string
	names := buf[:0]
	for name := range a {
		names = append(names, name)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(jsonw.String(dst, name), ':')
		var err error
		if dst, err = a[name].appendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// Encode renders the assignment as a canonical "k=v, k=v" string with keys
// in sorted order. Used for job labels and archive manifests.
func (a Assignment) Encode() string {
	var buf [8]string
	keys := buf[:0]
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(a[k].String())
	}
	return sb.String()
}

// Int returns the integer payload of parameter name, or def when the
// parameter is absent or has a different kind.
func (a Assignment) Int(name string, def int64) int64 {
	if v, ok := a[name]; ok {
		if n, ok := v.AsInt(); ok {
			return n
		}
	}
	return def
}

// Float returns the float payload of parameter name, or def.
func (a Assignment) Float(name string, def float64) float64 {
	if v, ok := a[name]; ok {
		if f, ok := v.AsFloat(); ok {
			return f
		}
	}
	return def
}

// Bool returns the boolean payload of parameter name, or def.
func (a Assignment) Bool(name string, def bool) bool {
	if v, ok := a[name]; ok {
		if b, ok := v.AsBool(); ok {
			return b
		}
	}
	return def
}

// String returns the string payload of parameter name, or def.
func (a Assignment) String(name, def string) string {
	if v, ok := a[name]; ok {
		if s, ok := v.AsString(); ok {
			return s
		}
	}
	return def
}
