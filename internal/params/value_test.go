package params

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Fatalf("Bool round-trip failed: %v %v", v, ok)
	}
	if v, ok := Int(-42).AsInt(); !ok || v != -42 {
		t.Fatalf("Int round-trip failed: %v %v", v, ok)
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Fatalf("Float round-trip failed: %v %v", v, ok)
	}
	if v, ok := String_("abc").AsString(); !ok || v != "abc" {
		t.Fatalf("String round-trip failed: %v %v", v, ok)
	}
	if v, ok := StringList("a", "b").AsStringList(); !ok || len(v) != 2 || v[1] != "b" {
		t.Fatalf("StringList round-trip failed: %v %v", v, ok)
	}
	if v, ok := Ratio(95, 5).AsRatio(); !ok || len(v) != 2 || v[0] != 95 {
		t.Fatalf("Ratio round-trip failed: %v %v", v, ok)
	}
}

func TestValueKindMismatch(t *testing.T) {
	if _, ok := Int(1).AsBool(); ok {
		t.Fatal("AsBool should fail on int")
	}
	if _, ok := Bool(true).AsString(); ok {
		t.Fatal("AsString should fail on bool")
	}
	if _, ok := String_("x").AsRatio(); ok {
		t.Fatal("AsRatio should fail on string")
	}
	if _, ok := Ratio(1).AsStringList(); ok {
		t.Fatal("AsStringList should fail on ratio")
	}
}

func TestValueWidening(t *testing.T) {
	if v, ok := Bool(true).AsInt(); !ok || v != 1 {
		t.Fatalf("bool should widen to int 1, got %v %v", v, ok)
	}
	if v, ok := Int(7).AsFloat(); !ok || v != 7.0 {
		t.Fatalf("int should widen to float, got %v %v", v, ok)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Bool(true), "true"},
		{Int(12), "12"},
		{Float(1.5), "1.5"},
		{String_("eng"), "eng"},
		{StringList("a", "b"), "a,b"},
		{Ratio(95, 5), "95:5"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRatioFraction(t *testing.T) {
	r := Ratio(95, 5)
	if f := r.RatioFraction(0); f != 0.95 {
		t.Fatalf("fraction 0 = %v, want 0.95", f)
	}
	if f := r.RatioFraction(1); f != 0.05 {
		t.Fatalf("fraction 1 = %v, want 0.05", f)
	}
	if f := r.RatioFraction(2); f != 0 {
		t.Fatalf("out-of-range fraction = %v, want 0", f)
	}
	if f := Int(3).RatioFraction(0); f != 0 {
		t.Fatalf("non-ratio fraction = %v, want 0", f)
	}
	if f := Ratio(0, 0).RatioFraction(0); f != 0 {
		t.Fatalf("zero-sum fraction = %v, want 0", f)
	}
}

// randomValue generates an arbitrary valid Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(r.NormFloat64() * 1000)
	case 3:
		return String_(randomString(r))
	case 4:
		n := r.Intn(4)
		list := make([]string, n)
		for i := range list {
			list[i] = randomString(r)
		}
		return StringList(list...)
	default:
		n := 2 + r.Intn(3)
		parts := make([]int, n)
		for i := range parts {
			parts[i] = r.Intn(100)
		}
		return Ratio(parts...)
	}
}

func randomString(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// TestValueJSONRoundTrip is a property test: any value survives a JSON
// round-trip and compares Equal to the original.
func TestValueJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		data, err := json.Marshal(v)
		if err != nil {
			t.Logf("marshal error: %v", err)
			return false
		}
		var got Value
		if err := json.Unmarshal(data, &got); err != nil {
			t.Logf("unmarshal error: %v", err)
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestValueEqualReflexiveSymmetric is a property test on the Equal
// relation.
func TestValueEqualReflexiveSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		if !a.Equal(a) || !b.Equal(b) {
			return false // reflexivity
		}
		return a.Equal(b) == b.Equal(a) // symmetry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestValueStringDeterministic: equal values produce identical encodings.
func TestValueStringDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		return randomValue(r1).String() == randomValue(r2).String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentEncodeSorted(t *testing.T) {
	a := Assignment{
		"threads": Int(8),
		"engine":  String_("wiredtiger"),
		"async":   Bool(false),
	}
	want := "async=false, engine=wiredtiger, threads=8"
	if got := a.Encode(); got != want {
		t.Fatalf("Encode() = %q, want %q", got, want)
	}
}

func TestAssignmentAccessors(t *testing.T) {
	a := Assignment{
		"threads": Int(8),
		"ratio":   Float(0.5),
		"flag":    Bool(true),
		"engine":  String_("mmapv1"),
	}
	if got := a.Int("threads", 1); got != 8 {
		t.Errorf("Int = %d, want 8", got)
	}
	if got := a.Int("missing", 3); got != 3 {
		t.Errorf("Int default = %d, want 3", got)
	}
	if got := a.Float("ratio", 0); got != 0.5 {
		t.Errorf("Float = %v, want 0.5", got)
	}
	if got := a.Bool("flag", false); !got {
		t.Errorf("Bool = %v, want true", got)
	}
	if got := a.String("engine", ""); got != "mmapv1" {
		t.Errorf("String = %q, want mmapv1", got)
	}
	if got := a.String("threads", "dflt"); got != "dflt" {
		t.Errorf("String kind-mismatch should yield default, got %q", got)
	}
}

func TestAssignmentClone(t *testing.T) {
	a := Assignment{"x": Int(1)}
	b := a.Clone()
	b["x"] = Int(2)
	if v, _ := a["x"].AsInt(); v != 1 {
		t.Fatal("Clone must not share storage")
	}
	if !reflect.DeepEqual(a.Clone(), a) {
		t.Fatal("Clone should deep-equal original")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindBool, KindInt, KindFloat, KindString, KindStringList, KindRatio, KindInvalid} {
		got, err := KindFromString(k.String())
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round-trip %v -> %v", k, got)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Fatal("expected error for bogus kind")
	}
}

// FuzzValueJSON: experiment settings and system definitions arrive in
// REST bodies as Value JSON. No input panics the decoder, and a value it
// accepts marshals, parses back Equal, and marshals to the same bytes
// again. The seeds are committed under testdata/fuzz/FuzzValueJSON.
func FuzzValueJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Value
		if err := json.Unmarshal(data, &v); err != nil {
			return
		}
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%q parsed to %v, which does not marshal: %v", data, v, err)
		}
		var back Value
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q parsed to %v, whose JSON %s does not parse: %v", data, v, enc, err)
		}
		if !back.Equal(v) {
			t.Fatalf("%q parsed to %v, and its JSON %s back to %v", data, v, enc, back)
		}
		again, err := json.Marshal(back)
		if err != nil || string(again) != string(enc) {
			t.Fatalf("%q: JSON %s marshals again as %s (%v)", data, enc, again, err)
		}
	})
}
