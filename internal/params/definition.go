package params

import (
	"encoding/json"
	"fmt"
	"math"
)

// Type enumerates the UI-facing parameter types Chronos Control offers
// when a system is configured (paper §2.2): Boolean, check box, value
// types, intervals and ratios.
type Type string

const (
	// TypeBoolean is a single on/off switch.
	TypeBoolean Type = "boolean"
	// TypeCheckbox is a multi-selection out of a fixed option set.
	TypeCheckbox Type = "checkbox"
	// TypeValue is a single typed scalar (int, float or string), optionally
	// restricted to an option list.
	TypeValue Type = "value"
	// TypeInterval is a numeric range [Min,Max] swept with a step width;
	// each step becomes one candidate value.
	TypeInterval Type = "interval"
	// TypeRatio is a proportion split into a fixed number of named parts,
	// e.g. a 95:5 read/update mix.
	TypeRatio Type = "ratio"
)

// Definition declares one parameter of a system: what the evaluation
// client expects, how the UI should render it, and how values validate.
type Definition struct {
	// Name is the unique key of the parameter within its system.
	Name string `json:"name"`
	// Label is the human-readable UI caption; defaults to Name.
	Label string `json:"label,omitempty"`
	// Description documents the parameter for experiment designers.
	Description string `json:"description,omitempty"`
	// Type selects the UI widget and validation rules.
	Type Type `json:"type"`
	// Required marks parameters every experiment must assign.
	Required bool `json:"required,omitempty"`

	// ValueKind restricts TypeValue parameters to one scalar kind
	// (KindInt, KindFloat or KindString).
	ValueKind Kind `json:"-"`
	// ValueKindName is the serialised form of ValueKind.
	ValueKindName string `json:"valueKind,omitempty"`

	// Options enumerates the legal selections for TypeCheckbox, and the
	// legal string values for TypeValue parameters with KindString when
	// non-empty.
	Options []string `json:"options,omitempty"`

	// Min, Max and Step bound TypeInterval parameters and numeric
	// TypeValue parameters. Step is only meaningful for intervals.
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
	Step float64 `json:"step,omitempty"`

	// RatioParts names the components of a TypeRatio parameter, e.g.
	// ["read", "update"]. Its length fixes the arity of valid values.
	RatioParts []string `json:"ratioParts,omitempty"`

	// Default is applied when an experiment leaves the parameter
	// unassigned and Required is false.
	Default Value `json:"default"`
}

// defAlias breaks the MarshalJSON/UnmarshalJSON recursion.
type defAlias Definition

// MarshalJSON serialises the definition with ValueKindName synchronised
// from ValueKind, so definitions constructed in code survive the wire.
func (d Definition) MarshalJSON() ([]byte, error) {
	if d.ValueKind != KindInvalid {
		d.ValueKindName = d.ValueKind.String()
	}
	return json.Marshal(defAlias(d))
}

// UnmarshalJSON parses the definition and restores ValueKind from its
// serialised name.
func (d *Definition) UnmarshalJSON(data []byte) error {
	var a defAlias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*d = Definition(a)
	return d.normalizeKinds()
}

// normalizeKinds synchronises ValueKind and ValueKindName after JSON
// decoding or manual construction.
func (d *Definition) normalizeKinds() error {
	if d.ValueKind == KindInvalid && d.ValueKindName != "" {
		k, err := KindFromString(d.ValueKindName)
		if err != nil {
			return err
		}
		d.ValueKind = k
	}
	if d.ValueKind != KindInvalid {
		d.ValueKindName = d.ValueKind.String()
	}
	return nil
}

// Check validates the definition itself (not a value against it).
func (d *Definition) Check() error {
	if d.Name == "" {
		return fmt.Errorf("params: definition without name")
	}
	if err := d.normalizeKinds(); err != nil {
		return fmt.Errorf("params: definition %q: %w", d.Name, err)
	}
	switch d.Type {
	case TypeBoolean:
		// No extra configuration.
	case TypeCheckbox:
		if len(d.Options) == 0 {
			return fmt.Errorf("params: checkbox %q needs options", d.Name)
		}
	case TypeValue:
		switch d.ValueKind {
		case KindInt, KindFloat, KindString:
		case KindInvalid:
			return fmt.Errorf("params: value %q needs a valueKind", d.Name)
		default:
			return fmt.Errorf("params: value %q has unsupported kind %v", d.Name, d.ValueKind)
		}
	case TypeInterval:
		if d.Max < d.Min {
			return fmt.Errorf("params: interval %q has max %v < min %v", d.Name, d.Max, d.Min)
		}
		if d.Step < 0 {
			return fmt.Errorf("params: interval %q has negative step", d.Name)
		}
	case TypeRatio:
		if len(d.RatioParts) < 2 {
			return fmt.Errorf("params: ratio %q needs at least two parts", d.Name)
		}
	default:
		return fmt.Errorf("params: definition %q has unknown type %q", d.Name, d.Type)
	}
	if d.Default.IsValid() {
		if err := d.Validate(d.Default); err != nil {
			return fmt.Errorf("params: definition %q default: %w", d.Name, err)
		}
	} else if !d.Required {
		return fmt.Errorf("params: optional definition %q needs a default", d.Name)
	}
	return nil
}

// Validate checks a single concrete value against the definition.
func (d *Definition) Validate(v Value) error {
	if err := d.normalizeKinds(); err != nil {
		return err
	}
	switch d.Type {
	case TypeBoolean:
		if v.Kind() != KindBool {
			return fmt.Errorf("parameter %q expects bool, got %v", d.Name, v.Kind())
		}
	case TypeCheckbox:
		sel, ok := v.AsStringList()
		if !ok {
			return fmt.Errorf("parameter %q expects a selection list, got %v", d.Name, v.Kind())
		}
		for _, s := range sel {
			if !containsString(d.Options, s) {
				return fmt.Errorf("parameter %q: %q is not an option", d.Name, s)
			}
		}
	case TypeValue:
		switch d.ValueKind {
		case KindInt:
			n, ok := v.AsInt()
			if !ok || v.Kind() != KindInt {
				return fmt.Errorf("parameter %q expects int, got %v", d.Name, v.Kind())
			}
			if err := d.checkBounds(float64(n)); err != nil {
				return err
			}
		case KindFloat:
			f, ok := v.AsFloat()
			if !ok {
				return fmt.Errorf("parameter %q expects float, got %v", d.Name, v.Kind())
			}
			if err := d.checkBounds(f); err != nil {
				return err
			}
		case KindString:
			s, ok := v.AsString()
			if !ok {
				return fmt.Errorf("parameter %q expects string, got %v", d.Name, v.Kind())
			}
			if len(d.Options) > 0 && !containsString(d.Options, s) {
				return fmt.Errorf("parameter %q: %q is not an option", d.Name, s)
			}
		}
	case TypeInterval:
		n, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("parameter %q expects a numeric value, got %v", d.Name, v.Kind())
		}
		if n < d.Min || n > d.Max {
			return fmt.Errorf("parameter %q: %v outside [%v,%v]", d.Name, n, d.Min, d.Max)
		}
	case TypeRatio:
		parts, ok := v.AsRatio()
		if !ok {
			return fmt.Errorf("parameter %q expects a ratio, got %v", d.Name, v.Kind())
		}
		if len(parts) != len(d.RatioParts) {
			return fmt.Errorf("parameter %q expects %d ratio parts, got %d", d.Name, len(d.RatioParts), len(parts))
		}
		sum := 0
		for _, p := range parts {
			if p < 0 {
				return fmt.Errorf("parameter %q: negative ratio part %d", d.Name, p)
			}
			sum += p
		}
		if sum == 0 {
			return fmt.Errorf("parameter %q: ratio parts sum to zero", d.Name)
		}
	default:
		return fmt.Errorf("parameter %q has unknown type %q", d.Name, d.Type)
	}
	return nil
}

// checkBounds applies Min/Max to numeric value parameters when set.
func (d *Definition) checkBounds(f float64) error {
	if d.Min == 0 && d.Max == 0 {
		return nil
	}
	if f < d.Min || f > d.Max {
		return fmt.Errorf("parameter %q: %v outside [%v,%v]", d.Name, f, d.Min, d.Max)
	}
	return nil
}

// IntervalValues expands a TypeInterval definition into its discrete
// candidate values: Min, Min+Step, ... up to and including Max (subject to
// floating point tolerance). A zero Step yields only Min and Max.
func (d *Definition) IntervalValues() []Value {
	if d.Type != TypeInterval {
		return nil
	}
	if d.Step <= 0 {
		if d.Min == d.Max {
			return []Value{intervalValue(d.Min)}
		}
		return []Value{intervalValue(d.Min), intervalValue(d.Max)}
	}
	var out []Value
	// Tolerate accumulated floating point error of half a step, and always
	// include Max as the final value so sweeps cover the declared range.
	for x := d.Min; x < d.Max-d.Step/2; x += d.Step {
		out = append(out, intervalValue(x))
	}
	return append(out, intervalValue(d.Max))
}

// intervalValue produces an int Value when the float is integral, which
// keeps job labels like "threads=8" free of decimal points.
func intervalValue(f float64) Value {
	if f == math.Trunc(f) && math.Abs(f) < 1<<62 {
		return Int(int64(f))
	}
	return Float(f)
}

func containsString(list []string, s string) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}
