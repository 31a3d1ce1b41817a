package params

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// refValueJSON, refMarshal and refUnmarshal are the Value codec as it was
// when encoding/json did all of the work: the reference the hand-written
// codec is held to, byte for byte on the way out and value for value (or
// refusal for refusal) on the way in.
type refValueJSON struct {
	Kind  string   `json:"kind"`
	Bool  *bool    `json:"bool,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"string,omitempty"`
	List  []string `json:"list,omitempty"`
	Ratio []int    `json:"ratio,omitempty"`
}

func refMarshal(v Value) ([]byte, error) {
	w := refValueJSON{Kind: v.kind.String()}
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
	case KindRatio:
		w.Ratio = v.ratio
	}
	return json.Marshal(w)
}

func refUnmarshal(data []byte) (Value, error) {
	var w refValueJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return Value{}, err
	}
	k, err := KindFromString(w.Kind)
	if err != nil {
		return Value{}, err
	}
	switch k {
	case KindBool:
		if w.Bool == nil {
			return Value{}, fmt.Errorf("params: bool value missing payload")
		}
		return Bool(*w.Bool), nil
	case KindInt:
		if w.Int == nil {
			return Value{}, fmt.Errorf("params: int value missing payload")
		}
		return Int(*w.Int), nil
	case KindFloat:
		if w.Float == nil {
			return Value{}, fmt.Errorf("params: float value missing payload")
		}
		return Float(*w.Float), nil
	case KindString:
		if w.Str == nil {
			return Value{}, fmt.Errorf("params: string value missing payload")
		}
		return String_(*w.Str), nil
	case KindStringList:
		return StringList(w.List...), nil
	case KindRatio:
		return Ratio(w.Ratio...), nil
	}
	return Value{}, nil
}

// checkEncodesAsReference fails unless v marshals to the reference's bytes,
// or both refuse it.
func checkEncodesAsReference(t *testing.T, v Value) {
	t.Helper()
	got, err := v.MarshalJSON()
	want, refErr := refMarshal(v)
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%#v marshals to %s (%v), the reference to %s (%v)", v, got, err, want, refErr)
	}
}

// checkAssignmentEncodesAsReference fails unless a's AppendJSON writes
// json.Marshal's bytes, or both refuse it.
func checkAssignmentEncodesAsReference(t *testing.T, a Assignment) {
	t.Helper()
	got, err := a.AppendJSON(nil)
	want, refErr := json.Marshal(a)
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%#v appends %s (%v), json.Marshal %s (%v)", a, got, err, want, refErr)
	}
}

// FuzzValueCodecMatchesReflection: for any bytes, UnmarshalJSON accepts
// exactly what the reflective reference accepts, with an Equal value of
// the same kind, and refuses the rest with the same error; a value it
// accepts marshals to the reference's bytes. The input also encodes as
// a string, a list and (from its first eight bytes) a float, so the
// encoder meets arbitrary bytes too, and as a parameter name beside those
// values in an Assignment, whose AppendJSON must write json.Marshal's
// bytes. The seeds, under
// testdata/fuzz/FuzzValueCodecMatchesReflection, are each kind's
// canonical form and the near-misses the canonical scanner must pass to
// the general decoder.
func FuzzValueCodecMatchesReflection(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Value
		err := got.UnmarshalJSON(data)
		want, refErr := refUnmarshal(data)
		switch {
		case err != nil || refErr != nil:
			// encoding/json names the struct it decodes into.
			if err == nil || refErr == nil || err.Error() != strings.Replace(refErr.Error(), "refValueJSON", "valueJSON", 1) {
				t.Fatalf("%q: decoded to %#v (%v), the reference to %#v (%v)", data, got, err, want, refErr)
			}
		case got.Kind() != want.Kind() || !got.Equal(want):
			t.Fatalf("%q: decoded to %#v, the reference to %#v", data, got, want)
		default:
			checkEncodesAsReference(t, got)
		}
		checkEncodesAsReference(t, String_(string(data)))
		checkEncodesAsReference(t, StringList(string(data), ""))
		a := Assignment{string(data): String_(string(data)), "list": StringList(string(data), "")}
		if err == nil {
			a["decoded"] = got
		}
		if len(data) >= 8 {
			f := Float(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			checkEncodesAsReference(t, f)
			a["f"] = f
		}
		checkAssignmentEncodesAsReference(t, a)
	})
}

// TestValueWireBytes pins the bytes MarshalJSON writes for each kind and
// for the strings and floats encoding/json treats specially. Job rows,
// WAL records, snapshots and REST bodies hold these bytes; the expected
// values are what the reflective encoder wrote.
func TestValueWireBytes(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		want string
	}{
		{"invalid", Value{}, `{"kind":"invalid"}`},
		{"kind outside the enum", Value{kind: Kind(9)}, `{"kind":"kind(9)"}`},
		{"bool true", Bool(true), `{"kind":"bool","bool":true}`},
		{"bool false", Bool(false), `{"kind":"bool","bool":false}`},
		{"int 0", Int(0), `{"kind":"int","int":0}`},
		{"int min", Int(math.MinInt64), `{"kind":"int","int":-9223372036854775808}`},
		{"int max", Int(math.MaxInt64), `{"kind":"int","int":9223372036854775807}`},
		{"float 0", Float(0), `{"kind":"float","float":0}`},
		{"float -0", Float(math.Copysign(0, -1)), `{"kind":"float","float":-0}`},
		{"float 1e-7", Float(1e-7), `{"kind":"float","float":1e-7}`},
		{"float 1e-6", Float(1e-6), `{"kind":"float","float":0.000001}`},
		{"float 0.95", Float(0.95), `{"kind":"float","float":0.95}`},
		{"float 1e20", Float(1e20), `{"kind":"float","float":100000000000000000000}`},
		{"float 1e21", Float(1e21), `{"kind":"float","float":1e+21}`},
		{"float 5e-324", Float(5e-324), `{"kind":"float","float":5e-324}`},
		{"float max", Float(math.MaxFloat64), `{"kind":"float","float":1.7976931348623157e+308}`},
		{"float -1.5e-300", Float(-1.5e-300), `{"kind":"float","float":-1.5e-300}`},
		{"string empty", String_(""), `{"kind":"string","string":""}`},
		{"string plain", String_("phase=steady,ops=1400"), `{"kind":"string","string":"phase=steady,ops=1400"}`},
		{"string html", String_("<a>&b"), `{"kind":"string","string":"\u003ca\u003e\u0026b"}`},
		{"string lt", String_("a<b"), `{"kind":"string","string":"a\u003cb"}`},
		{"string gt", String_("a>b"), `{"kind":"string","string":"a\u003eb"}`},
		{"string amp", String_("a&b"), `{"kind":"string","string":"a\u0026b"}`},
		{"string quote", String_(`say "hi"`), `{"kind":"string","string":"say \"hi\""}`},
		{"string backslash", String_(`a\b`), `{"kind":"string","string":"a\\b"}`},
		{"string controls", String_("\x00\t\n\r\x1f\x7f"), "{\"kind\":\"string\",\"string\":\"\\u0000\\t\\n\\r\\u001f\x7f\"}"},
		{"string u2028", String_("a\u2028b\u2029c"), `{"kind":"string","string":"a\u2028b\u2029c"}`},
		{"string non-ascii", String_("é"), `{"kind":"string","string":"é"}`},
		{"string invalid utf8", String_("a\xffb"), `{"kind":"string","string":"a\ufffdb"}`},
		{"stringlist nil", Value{kind: KindStringList}, `{"kind":"stringlist"}`},
		{"stringlist empty", StringList(), `{"kind":"stringlist"}`},
		{"stringlist", StringList("a", "<b>", ""), `{"kind":"stringlist","list":["a","\u003cb\u003e",""]}`},
		{"ratio nil", Value{kind: KindRatio}, `{"kind":"ratio"}`},
		{"ratio empty", Ratio(), `{"kind":"ratio"}`},
		{"ratio", Ratio(95, 5, 0, -1), `{"kind":"ratio","ratio":[95,5,0,-1]}`},
	}
	for _, c := range cases {
		got, err := c.v.MarshalJSON()
		if err != nil || string(got) != c.want {
			t.Errorf("%s: MarshalJSON = %s (%v), want %s", c.name, got, err, c.want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := "json: unsupported value: " + fmt.Sprint(f)
		if _, err := Float(f).MarshalJSON(); err == nil || err.Error() != want {
			t.Errorf("Float(%v).MarshalJSON error = %v, want %s", f, err, want)
		}
	}
}

// TestAssignmentJSON: the assignments json.Marshal treats specially —
// nil, empty, names that need escaping, a value with no JSON form — append
// its bytes or fail with it.
func TestAssignmentJSON(t *testing.T) {
	for _, a := range []Assignment{
		nil,
		{},
		{"threads": Int(4), "engine": String_("wiredtiger"), "a<b>&": Bool(true), "é\u2028": Ratio(1, 2), "": StringList()},
		{"nan": Float(math.NaN())},
	} {
		checkAssignmentEncodesAsReference(t, a)
	}
}

// TestCanonicalScanner: the forms MarshalJSON writes are read without
// encoding/json, and the near-misses are left to the general decoder.
func TestCanonicalScanner(t *testing.T) {
	for _, in := range []string{
		`{"kind":"invalid"}`,
		`{"kind":"bool","bool":false}`,
		`{"kind":"int","int":-9223372036854775808}`,
		`{"kind":"int","int":-0}`,
		`{"kind":"float","float":1.7976931348623157e+308}`,
		`{"kind":"float","float":-0.5E-3}`,
		`{"kind":"string","string":"<a>&b"}`,
		`{"kind":"stringlist"}`,
		`{"kind":"stringlist","list":["a","",","]}`,
		`{"kind":"ratio"}`,
		`{"kind":"ratio","ratio":[]}`,
		`{"kind":"ratio","ratio":[95,5]}`,
	} {
		if _, ok := parseCanonical([]byte(in)); !ok {
			t.Errorf("%s is not read as canonical", in)
		}
	}
	for _, in := range []string{
		``,
		`null`,
		`{"kind":"int","int":1} `,
		`{ "kind":"int","int":1}`,
		`{"int":1,"kind":"int"}`,
		`{"kind":"int","int":1,"int":2}`,
		`{"kind":"int","bool":true}`,
		`{"Kind":"int","int":1}`,
		`{"kind":"INT","int":1}`,
		`{"kind":"kind(9)"}`,
		`{"kind":"bool"}`,
		`{"kind":"invalid","int":1}`,
		`{"kind":"int","int":null}`,
		`{"kind":"int","int":007}`,
		`{"kind":"int","int":-}`,
		`{"kind":"int","int":1e3}`,
		`{"kind":"int","int":1.0}`,
		`{"kind":"int","int":9223372036854775808}`,
		`{"kind":"float","float":1.}`,
		`{"kind":"float","float":.5}`,
		`{"kind":"float","float":1e}`,
		`{"kind":"float","float":1e400}`,
		`{"kind":"float","float":+1}`,
		`{"kind":"string","string":"a\"b"}`,
		`{"kind":"string","string":"\u0041"}`,
		"{\"kind\":\"string\",\"string\":\"\xc3\xa9\"}",
		"{\"kind\":\"string\",\"string\":\"a\x7fb\"}",
		`{"kind":"stringlist","list":null}`,
		`{"kind":"stringlist","list":["a",]}`,
		`{"kind":"stringlist","list":["a" ]}`,
		`{"kind":"stringlist","list":["a"],}`,
		`{"kind":"ratio","ratio":[1,,2]}`,
		`{"kind":"ratio","ratio":[9223372036854775808]}`,
		`{"kind":"ratio","ratio":[1]]}`,
		`{"kind":"int","int":1}}`,
	} {
		if v, ok := parseCanonical([]byte(in)); ok {
			t.Errorf("%s is read as canonical, as %#v", in, v)
		}
	}
}

// TestValueJSONAllocs pins what the codec costs on the benchmark's own
// traffic: an int Value encodes in one allocation, its result, and its
// canonical form decodes in none.
func TestValueJSONAllocs(t *testing.T) {
	v := Int(1400)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := v.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("encoding an int Value allocates %v times, want at most 1", n)
	}
	data := []byte(`{"kind":"int","int":-9223372036854775808}`)
	var got Value
	if n := testing.AllocsPerRun(100, func() {
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding an int Value allocates %v times, want 0", n)
	}
}

// codecCases is one value of each kind.
var codecCases = []struct {
	name string
	v    Value
}{
	{"bool", Bool(true)},
	{"int", Int(1400)},
	{"float", Float(0.95)},
	{"string", String_("wiredtiger")},
	{"stringlist", StringList("read", "update", "scan")},
	{"ratio", Ratio(95, 5)},
}

// BenchmarkValueJSON: the codec per kind, and the two-int assignment the
// benchmark's sweeps give every job, through encoding/json as a job row
// and a REST body carry it.
func BenchmarkValueJSON(b *testing.B) {
	for _, c := range codecCases {
		enc, err := c.v.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.v.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			var v Value
			for i := 0; i < b.N; i++ {
				if err := v.UnmarshalJSON(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	a := Assignment{"v": Int(math.MaxInt32), "seed": Int(7)}
	enc, err := json.Marshal(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/assignment", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/assignment", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got Assignment
			if err := json.Unmarshal(enc, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
