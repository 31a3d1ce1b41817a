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
// toolkit so that storage, REST, and UI layers can all share one
// definition of what a parameter is.
package params

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
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

var kindNames = map[Kind]string{
	KindInvalid:    "invalid",
	KindBool:       "bool",
	KindInt:        "int",
	KindFloat:      "float",
	KindString:     "string",
	KindStringList: "stringlist",
	KindRatio:      "ratio",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString parses the name produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("params: unknown kind %q", s)
}

// MarshalText encodes the kind as its name, the form a definition's
// valueKind carries on the wire.
func (k Kind) MarshalText() ([]byte, error) {
	if s, ok := kindNames[k]; ok {
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

// valueJSON is the wire representation of a Value.
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
// integers and floats survive a round-trip unambiguously.
func (v Value) MarshalJSON() ([]byte, error) {
	w := valueJSON{Kind: v.kind.String()}
	switch v.kind {
	case KindBool:
		w.Bool = &v.b
	case KindInt:
		w.Int = &v.i
	case KindFloat:
		w.Float = &v.f
	case KindString:
		w.Str = &v.s
	case KindStringList:
		w.List = v.list
		if w.List == nil {
			w.List = []string{}
		}
	case KindRatio:
		w.Ratio = v.ratio
		if w.Ratio == nil {
			w.Ratio = []int{}
		}
	case KindInvalid:
		// Serialise as the explicit invalid tag; decoding restores it.
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
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

// Encode renders the assignment as a canonical "k=v, k=v" string with keys
// in sorted order. Used for job labels and archive manifests.
func (a Assignment) Encode() string {
	keys := make([]string, 0, len(a))
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
