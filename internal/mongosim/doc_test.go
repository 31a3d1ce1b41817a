package mongosim

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := Document{
		"_id":    "user000000000001",
		"name":   "ada",
		"empty":  "",
		"field0": string([]byte{0, 1, 2, 255}),
	}
	got, err := Decode(Encode(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", got, doc)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	doc := Document{"b": "2", "a": "1", "c": "x"}
	if !bytes.Equal(Encode(doc), Encode(doc)) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestEncodeLayout pins the stored bytes: the field count, then per field
// in name order its length-prefixed name, the string tag (1) and the
// length-prefixed value. Compression ratios and mmapv1 record sizes are
// measured over exactly these bytes.
func TestEncodeLayout(t *testing.T) {
	long := string(bytes.Repeat([]byte("v"), 200)) // a two-byte length varint
	got := Encode(Document{"_id": "u1", "f": long})
	want := []byte{2, 3, '_', 'i', 'd', 1, 2, 'u', '1', 1, 'f', 1, 0xc8, 0x01}
	want = append(want, long...)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode = %v\nwant     %v", got, want)
	}
	if got := Encode(Document{}); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("empty document encodes as %v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,                                     // empty
		{0x01},                                  // one field announced, nothing follows
		{0x01, 0x01, 'a'},                       // field name but no value
		{0x01, 0x05, 'a'},                       // truncated field name
		{0x01, 0x01, 'a', 99},                   // unknown tag
		{0x01, 0x01, 'a', tagString, 0x05, 'x'}, // truncated string
		{0x01, 0x01, 'a', tagString},            // string without its length
		{0x01, 0x01, 'a', 0xFF},                 // tag of no kind
	}
	// Every tag but the string tag is refused.
	for tag := byte(2); tag <= 7; tag++ {
		cases = append(cases, []byte{0x01, 0x01, 'a', tag, 0x00})
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d (%v): expected decode error", i, data)
		}
	}
	// Trailing garbage after a valid document.
	if _, err := Decode(append(Encode(Document{"a": "1"}), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDocumentCloneIsDeep(t *testing.T) {
	doc := Document{"_id": "x", "k": "1"}
	cp := doc.Clone()
	cp["k"] = "9"
	cp["new"] = "field"
	if doc["k"] != "1" || len(doc) != 2 {
		t.Fatalf("clone shares the original's fields: %v", doc)
	}
}

// TestDocumentMerge: an update overlays the patch's fields on the
// stored document, keeps the fields it does not name and leaves the
// stored bytes it read untouched.
func TestDocumentMerge(t *testing.T) {
	base := Encode(Document{"_id": "x", "a": "1", "b": "keep"})
	stored := bytes.Clone(base)
	out, err := patchEncoded(stored, Document{"a": "2", "c": "new"})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	want := Document{"_id": "x", "a": "2", "b": "keep", "c": "new"}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merge = %#v, want %#v", merged, want)
	}
	if !bytes.Equal(stored, base) {
		t.Fatal("merge wrote into the stored bytes")
	}
}

// mergeReference is the update as the store made it before it patched
// encodings: decode the stored document into a map, copy the patch over
// it, encode the map.
func mergeReference(old []byte, patch Document) ([]byte, error) {
	doc, err := Decode(old)
	if err != nil {
		return nil, err
	}
	maps.Copy(doc, patch)
	return Encode(doc), nil
}

func must(d Document, err error) Document {
	if err != nil {
		panic(err)
	}
	return d
}

// fuzzPatch cuts a patch out of arbitrary bytes: a length byte and that
// many bytes of name, then a length byte and the value, until the input
// runs out. Names repeat and sort anywhere, the empty name included.
func fuzzPatch(data []byte) Document {
	patch := Document{}
	next := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0]), len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	for len(data) > 0 {
		k := next()
		patch[k] = next()
	}
	return patch
}

// FuzzUpdateOneMatchesMerge holds the in-place update to the reference on
// arbitrary stored bytes, encodings Encode never writes (fields out of
// order, names twice, long varints) and malformed ones included: it
// fails exactly when the reference fails, with its error, and otherwise
// returns the reference's bytes. Through both engines, UpdateOne leaves
// the stored bytes the reference produced, or the old ones when it fails.
// Its seeds in testdata/fuzz cover each of those shapes.
func FuzzUpdateOneMatchesMerge(f *testing.F) {
	colls := map[string]*Collection{}
	for _, engine := range engineNames {
		srv, err := NewServer(engine, Options{WriteLatency: NoIO, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		defer srv.Close()
		colls[engine] = srv.Database("db").Collection("coll")
	}
	f.Fuzz(func(t *testing.T, stored, patchData []byte) {
		patch := fuzzPatch(patchData)
		want, wantErr := mergeReference(stored, patch)
		got, err := patchEncoded(stored, patch)
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("patchEncoded(%x, %q): error %v, reference error %v", stored, patch, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("patchEncoded(%x, %q) =\n%x\nreference\n%x", stored, patch, got, want)
		}
		for engine, c := range colls {
			c.engine.Put("doc", bytes.Clone(stored))
			if err := c.UpdateOne("doc", patch); (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: UpdateOne error %v, reference error %v", engine, err, wantErr)
			}
			if wantErr != nil {
				want = stored
			}
			if raw, _ := c.engine.Get("doc"); !bytes.Equal(raw, want) {
				t.Fatalf("%s: stored after UpdateOne\n%x\nwant\n%x", engine, raw, want)
			}
			if wantErr == nil {
				if doc, err := c.FindOne("doc"); err != nil || !maps.Equal(doc, must(Decode(want))) {
					t.Fatalf("%s: FindOne after UpdateOne = %q, %v", engine, doc, err)
				}
			}
		}
	})
}

func TestDocumentID(t *testing.T) {
	if (Document{"_id": "u1"}).ID() != "u1" {
		t.Fatal("ID lookup failed")
	}
	if (Document{}).ID() != "" {
		t.Fatal("missing ID should be empty")
	}
}

// randomDoc builds an arbitrary document for property tests.
func randomDoc(r *rand.Rand) Document {
	n := r.Intn(6)
	d := make(Document, n+1)
	d["_id"] = randKey(r)
	for i := 0; i < n; i++ {
		v := make([]byte, r.Intn(300))
		r.Read(v)
		d[randKey(r)] = string(v)
	}
	return d
}

func randKey(r *rand.Rand) string {
	const chars = "abcdefghij_"
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = chars[r.Intn(len(chars))]
	}
	return string(b)
}

// TestCodecRoundTripProperty: arbitrary documents survive encode/decode.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(rand.New(rand.NewSource(seed)))
		got, err := Decode(Encode(doc))
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(got, doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
