package relstore

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func codecSchema() Schema {
	return Schema{
		Name: "t",
		Key:  "id",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "n", Type: TInt, Nullable: true},
			{Name: "f", Type: TFloat, Nullable: true},
			{Name: "s", Type: TString, Nullable: true},
			{Name: "b", Type: TBool, Nullable: true},
			{Name: "blob", Type: TBytes, Nullable: true},
			{Name: "at", Type: TTime, Nullable: true},
		},
	}
}

// binRoundTrip encodes and decodes one row through the binary codec.
func binRoundTrip(t *testing.T, c *rowCodec, row Row) Row {
	t.Helper()
	enc, err := c.appendRow(nil, row)
	if err != nil {
		t.Fatalf("appendRow: %v", err)
	}
	if err := validateRowBytes(enc); err != nil {
		t.Fatalf("validateRowBytes rejects own encoding: %v", err)
	}
	dec, err := c.decodeRow(enc)
	if err != nil {
		t.Fatalf("decodeRow: %v", err)
	}
	return dec
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := codecSchema()
	c := newRowCodec(s)
	rows := []Row{
		{"id": "r1", "n": int64(42), "f": 3.5, "s": "hello", "b": true,
			"blob": []byte{0, 1, 2, 0xFF}, "at": time.Unix(1700000000, 123456789).UTC()},
		{"id": "r2"}, // every nullable column absent
		{"id": "r3", "n": int64(-1), "b": false, "s": "", "blob": []byte{}},
		{"id": "Ω — ключ", "s": "naïve\x00\nline"},
	}
	for _, row := range rows {
		got := binRoundTrip(t, &c, row)
		if !reflect.DeepEqual(got, row) {
			t.Errorf("binary round trip: got %#v, want %#v", got, row)
		}
	}
}

// TestRowCodecEdgeValues pins the values a text encoding would mangle:
// float bit patterns (NaN, ±Inf, -0.0) and times outside both the
// RFC 3339 four-digit-year window and the UnixNano int64 range
// (pre-1678 / post-2262).
func TestRowCodecEdgeValues(t *testing.T) {
	s := codecSchema()
	c := newRowCodec(s)

	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		got := binRoundTrip(t, &c, Row{"id": "r", "f": f})
		gf := got["f"].(float64)
		if math.Float64bits(gf) != math.Float64bits(f) {
			t.Errorf("float bits %x round-tripped to %x", math.Float64bits(f), math.Float64bits(gf))
		}
	}

	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)}
	for _, n := range ints {
		got := binRoundTrip(t, &c, Row{"id": "r", "n": n})
		if got["n"].(int64) != n {
			t.Errorf("int %d round-tripped to %v", n, got["n"])
		}
	}

	times := []time.Time{
		time.Date(1600, 3, 1, 12, 0, 0, 999999999, time.UTC), // pre-1678: UnixNano overflows
		time.Date(2400, 1, 1, 0, 0, 0, 1, time.UTC),          // post-2262: UnixNano overflows
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),             // time.Time zero value's instant
		time.Unix(0, 0).UTC(),
		time.Unix(-1, 999999999).UTC(),
	}
	for _, at := range times {
		got := binRoundTrip(t, &c, Row{"id": "r", "at": at})
		if gt := got["at"].(time.Time); !gt.Equal(at) {
			t.Errorf("time %v round-tripped to %v", at, gt)
		}
	}
}

// TestRowCodecRejectsCorruptRows exercises the structural validator and
// the typed decoder against targeted damage.
func TestRowCodecRejectsCorruptRows(t *testing.T) {
	s := codecSchema()
	c := newRowCodec(s)
	enc, err := c.appendRow(nil, Row{"id": "r1", "n": int64(7), "s": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.decodeRow(enc[:len(enc)-1]); err == nil {
		t.Error("truncated row decoded")
	}
	if err := validateRowBytes(enc[:len(enc)-1]); err == nil {
		t.Error("truncated row validated")
	}
	if err := validateRowBytes(append(append([]byte{}, enc...), 0xAB)); err == nil {
		t.Error("trailing garbage validated")
	}
	// A field naming an undeclared column is a schema-level decode error
	// (validateRowBytes is schema-free and accepts it).
	other := newRowCodec(Schema{Name: "o", Key: "k", Columns: []Column{{Name: "k", Type: TString}}})
	foreign, err := other.appendRow(nil, Row{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := validateRowBytes(foreign); err != nil {
		t.Errorf("structural validation should pass: %v", err)
	}
	if _, err := c.decodeRow(foreign); err == nil {
		t.Error("row with unknown column decoded")
	}
	// A tag that contradicts the declared column type must not decode.
	// Rather than hand-compute the tag's offset, encode the row through a
	// schema that lies about the column's type.
	liar := newRowCodec(Schema{Name: "t", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "n", Type: TString, Nullable: true},
	}})
	wrongTag, err := liar.appendRow(nil, Row{"id": "r1", "n": "not an int"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.decodeRow(wrongTag); err == nil {
		t.Error("type-mismatched tag decoded")
	}
}

// TestSchemaHashStability: the hash tracks the row layout (names, types,
// order) and nothing else, so index-flag upgrades keep it stable.
func TestSchemaHashStability(t *testing.T) {
	s := codecSchema()
	base := schemaHash(s)
	indexed := codecSchema()
	indexed.Columns[1].Indexed = true
	if schemaHash(indexed) != base {
		t.Error("index flag changed the schema hash")
	}
	extended := codecSchema()
	extended.Columns = append(extended.Columns, Column{Name: "extra", Type: TInt, Nullable: true})
	if schemaHash(extended) == base {
		t.Error("added column kept the schema hash")
	}
	retyped := codecSchema()
	retyped.Columns[1].Type = TFloat
	if schemaHash(retyped) == base {
		t.Error("retyped column kept the schema hash")
	}
}

// TestRowCodecUpgradeWindow: a row encoded under an older schema decodes
// against the upgraded one — the replay scenario where a compaction
// snapshot carries a newer schema than WAL rows replayed over it.
func TestRowCodecUpgradeWindow(t *testing.T) {
	old := codecSchema()
	oldCodec := newRowCodec(old)
	enc, err := oldCodec.appendRow(nil, Row{"id": "r1", "n": int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	upgraded := codecSchema()
	upgraded.Columns = append(upgraded.Columns, Column{Name: "extra", Type: TString, Nullable: true})
	newCodec := newRowCodec(upgraded)
	row, err := newCodec.decodeRow(enc)
	if err != nil {
		t.Fatalf("old-schema row failed to decode under upgraded schema: %v", err)
	}
	if !reflect.DeepEqual(row, Row{"id": "r1", "n": int64(5)}) {
		t.Errorf("decoded %#v", row)
	}
}

// FuzzRowCodecEquivalence: for arbitrary column values the codec must
// round-trip to an equivalent row, bit for bit — including floats and
// times no text encoding carries (NaN, ±Inf, years outside 1..9999),
// integers beyond 2⁵³ and invalid UTF-8.
func FuzzRowCodecEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0x400921FB54442D18), "s", []byte{1}, true, int64(0), uint32(0))
	f.Add(int64(-1), math.Float64bits(math.NaN()), "", []byte{}, false, int64(-9220000000), uint32(999999999))
	f.Add(int64(math.MinInt64), math.Float64bits(math.Copysign(0, -1)), "Ω", []byte{0xFF, 0}, true, int64(1e10), uint32(1))
	f.Fuzz(func(t *testing.T, n int64, fbits uint64, s string, blob []byte, b bool, sec int64, nanos uint32) {
		fv := math.Float64frombits(fbits)
		at := time.Unix(sec, int64(nanos%1e9)).UTC()
		row := Row{"id": "r", "n": n, "f": fv, "s": s, "b": b, "blob": blob, "at": at}
		schema := codecSchema()
		codec := newRowCodec(schema)

		enc, err := codec.appendRow(nil, row)
		if err != nil {
			t.Fatalf("appendRow: %v", err)
		}
		if err := validateRowBytes(enc); err != nil {
			t.Fatalf("own encoding fails structural validation: %v", err)
		}
		got, err := codec.decodeRow(enc)
		if err != nil {
			t.Fatalf("decodeRow: %v", err)
		}
		if len(got) != len(row) {
			t.Fatalf("binary round trip changed field count: %v vs %v", got, row)
		}
		for k, v := range row {
			if !valueEqualBits(got[k], v) {
				t.Fatalf("binary round trip of %q: %#v != %#v", k, got[k], v)
			}
		}
	})
}

// valueEqualBits compares two typed values, treating floats by bit
// pattern (so -0.0 ≠ 0.0 and NaN = NaN) and times by instant.
func valueEqualBits(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// benchRow is a representative mid-size row (the shape core's job table
// produces: a few scalars plus a JSON blob column).
func benchRow() (Schema, Row) {
	s := Schema{Name: "jobs", Key: "id", Columns: []Column{
		{Name: "id", Type: TString},
		{Name: "status", Type: TString, Indexed: true},
		{Name: "systemId", Type: TString, Indexed: true},
		{Name: "attempts", Type: TInt},
		{Name: "heartbeat", Type: TTime, Nullable: true},
		{Name: "progress", Type: TInt, Nullable: true},
		{Name: "data", Type: TBytes},
	}}
	blob := make([]byte, 512)
	for i := range blob {
		blob[i] = byte(i)
	}
	return s, Row{
		"id": "job-00000042", "status": "running", "systemId": "sys-1",
		"attempts": int64(3), "heartbeat": time.Unix(1700000000, 0).UTC(),
		"progress": int64(55), "data": blob,
	}
}

func BenchmarkRowCodecEncode(b *testing.B) {
	s, row := benchRow()
	c := newRowCodec(s)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = c.appendRow(buf[:0], row)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowCodecDecode(b *testing.B) {
	s, row := benchRow()
	c := newRowCodec(s)
	enc, err := c.appendRow(nil, row)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.decodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}
