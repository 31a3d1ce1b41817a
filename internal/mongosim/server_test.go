package mongosim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestServerDatabasesAndCollections(t *testing.T) {
	s, err := NewServer(EngineWiredTiger, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := s.Database("bench")
	if s.Database("bench") != db {
		t.Fatal("Database not idempotent")
	}
	c := db.Collection("usertable")
	if db.Collection("usertable") != c {
		t.Fatal("Collection not idempotent")
	}
	// Collections are separate stores, of separate databases too.
	if err := c.InsertOne(Document{IDField: "u1"}); err != nil {
		t.Fatal(err)
	}
	for i, other := range []*Collection{db.Collection("other"), s.Database("alpha").Collection("usertable")} {
		if _, err := other.FindOne("u1"); !errors.Is(err, ErrNoDocument) {
			t.Fatalf("collection %d sees another collection's document: %v", i, err)
		}
	}
	if c.Stats().Engine != EngineWiredTiger {
		t.Fatalf("engine = %s", c.Stats().Engine)
	}
}

func TestNewServerRejectsUnknownEngine(t *testing.T) {
	if _, err := NewServer("leveldb", Options{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func collectionForTest(t *testing.T, engine string) *Collection {
	t.Helper()
	s, err := NewServer(engine, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Database("db").Collection("coll")
}

func TestCollectionCRUDBothEngines(t *testing.T) {
	for _, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			c := collectionForTest(t, engine)
			doc := Document{"_id": "u1", "name": "ada", "age": "36"}
			if err := c.InsertOne(doc); err != nil {
				t.Fatal(err)
			}
			if err := c.InsertOne(doc); !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("duplicate insert: %v", err)
			}
			got, err := c.FindOne("u1")
			if err != nil {
				t.Fatal(err)
			}
			if got["name"] != "ada" {
				t.Fatalf("FindOne = %v", got)
			}
			if err := c.UpdateOne("u1", Document{"age": "37"}); err != nil {
				t.Fatal(err)
			}
			got, _ = c.FindOne("u1")
			if got["age"] != "37" || got["name"] != "ada" {
				t.Fatalf("after update: %v", got)
			}
			if err := c.UpdateOne("ghost", Document{"x": "1"}); !errors.Is(err, ErrNoDocument) {
				t.Fatalf("update missing: %v", err)
			}
			if err := c.ReplaceOne(Document{"_id": "u1", "fresh": "yes"}); err != nil {
				t.Fatal(err)
			}
			got, _ = c.FindOne("u1")
			if _, hasName := got["name"]; hasName || got["fresh"] != "yes" {
				t.Fatalf("after replace: %v", got)
			}
			if _, err := c.FindOne("ghost"); !errors.Is(err, ErrNoDocument) {
				t.Fatalf("find missing: %v", err)
			}
			if c.Count() != 1 {
				t.Fatalf("Count = %d", c.Count())
			}
		})
	}
}

func TestCollectionRequiresID(t *testing.T) {
	c := collectionForTest(t, EngineWiredTiger)
	if err := c.InsertOne(Document{"x": "1"}); err == nil {
		t.Fatal("insert without _id accepted")
	}
	if err := c.ReplaceOne(Document{"x": "1"}); err == nil {
		t.Fatal("replace without _id accepted")
	}
}

func TestCollectionScan(t *testing.T) {
	for _, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			c := collectionForTest(t, engine)
			for i := 0; i < 20; i++ {
				err := c.InsertOne(Document{"_id": fmt.Sprintf("user%04d", i), "n": strconv.Itoa(i)})
				if err != nil {
					t.Fatal(err)
				}
			}
			docs, err := c.Scan("user0005", 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(docs) != 5 {
				t.Fatalf("scan len = %d", len(docs))
			}
			for i, d := range docs {
				if d["n"] != strconv.Itoa(5+i) {
					t.Fatalf("scan[%d] = %v", i, d)
				}
			}
			if c.Count() != 20 {
				t.Fatalf("Count = %d", c.Count())
			}
		})
	}
}

func TestCollectionConcurrentUpdatesNotLost(t *testing.T) {
	for _, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			c := collectionForTest(t, engine)
			if err := c.InsertOne(Document{"_id": "acc", "balance": "0"}); err != nil {
				t.Fatal(err)
			}
			const workers = 8
			const perWorker = 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						err := c.engine.Apply("acc", func(old []byte, exists bool) ([]byte, error) {
							doc, err := Decode(old)
							if err != nil {
								return nil, err
							}
							n, err := strconv.Atoi(doc["balance"])
							if err != nil {
								return nil, err
							}
							doc["balance"] = strconv.Itoa(n + 1)
							return Encode(doc), nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			got, _ := c.FindOne("acc")
			if got["balance"] != strconv.Itoa(workers*perWorker) {
				t.Fatalf("balance = %v, want %d", got["balance"], workers*perWorker)
			}
		})
	}
}

func TestCollectionStats(t *testing.T) {
	c := collectionForTest(t, EngineMMAPv1)
	c.InsertOne(Document{"_id": "a", "v": "1"})
	st := c.Stats()
	if st.Engine != EngineMMAPv1 || st.Documents != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// record is a workload-shaped document: an _id and ten 100-byte fields.
func record(id string) Document {
	doc := Document{IDField: id}
	for i := 0; i < 10; i++ {
		doc["field"+strconv.Itoa(i)] = strings.Repeat(strconv.Itoa(i), 100)
	}
	return doc
}

// TestMMAPv1RatioAfterInPlaceUpdates: mmapv1 compresses nothing and pads
// every record, so it stores at least the bytes it is given, in place
// updates included: a rewritten slot counts as stored bytes like a new
// one.
func TestMMAPv1RatioAfterInPlaceUpdates(t *testing.T) {
	c := collectionForTest(t, EngineMMAPv1)
	for i := 0; i < 200; i++ {
		if err := c.InsertOne(record("user" + strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r := c.Stats().CompressionRatio(); r > 1 {
		t.Fatalf("ratio after load = %.3f, want <= 1", r)
	}
	for i := 0; i < 2000; i++ {
		if err := c.UpdateOne("user"+strconv.Itoa(i%200), Document{"field3": strings.Repeat("u", 100)}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Moves != 0 {
		t.Fatalf("same-size updates moved %d records", st.Moves)
	}
	if r := st.CompressionRatio(); r > 1 {
		t.Fatalf("ratio after in-place updates = %.3f, want <= 1", r)
	}
}

// TestUpdateOneAllocs pins what a one-field update of a cached
// workload-shaped document allocates on wiredTiger: the closure handed to
// the engine, the patched encoding and the stored image's exact-size
// copy.
func TestUpdateOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop compressors, each a fresh flate writer's allocations")
	}
	s, err := NewServer(EngineWiredTiger, Options{WriteLatency: NoIO, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.Database("db").Collection("coll")
	if err := c.InsertOne(record("user1")); err != nil {
		t.Fatal(err)
	}
	patch := Document{"field4": strings.Repeat("w", 100)}
	if a := testing.AllocsPerRun(1000, func() {
		if err := c.UpdateOne("user1", patch); err != nil {
			t.Fatal(err)
		}
	}); a > 3 {
		t.Errorf("a one-field UpdateOne allocates %v times, want at most 3", a)
	}
}
