package mongosim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func allEngines(t *testing.T, opts Options) []Engine {
	t.Helper()
	var out []Engine
	for _, name := range EngineNames() {
		e, err := New(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestNewUnknownEngine(t *testing.T) {
	if _, err := New("rocksdb", Options{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestEngineCRUD(t *testing.T) {
	for _, e := range allEngines(t, Options{Seed: 1}) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			if _, ok := e.Get("missing"); ok {
				t.Fatal("missing key found")
			}
			if err := e.Insert("k1", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("k1", []byte("again")); err == nil {
				t.Fatal("duplicate insert accepted")
			}
			v, ok := e.Get("k1")
			if !ok || string(v) != "v1" {
				t.Fatalf("Get = %q %v", v, ok)
			}
			e.Put("k1", []byte("v2"))
			if v, _ := e.Get("k1"); string(v) != "v2" {
				t.Fatalf("after Put: %q", v)
			}
			e.Put("k2", []byte("fresh")) // upsert of missing key
			if e.Len() != 2 {
				t.Fatalf("Len = %d", e.Len())
			}
			if !e.Delete("k2") || e.Delete("k2") {
				t.Fatal("delete semantics wrong")
			}
			if e.Len() != 1 {
				t.Fatalf("Len after delete = %d", e.Len())
			}
		})
	}
}

func TestEngineApply(t *testing.T) {
	for _, e := range allEngines(t, Options{Seed: 2}) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			// Apply on a missing key can create it.
			err := e.Apply("k", func(old []byte, exists bool) ([]byte, error) {
				if exists {
					return nil, fmt.Errorf("should not exist")
				}
				return []byte("created"), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := e.Get("k"); string(v) != "created" {
				t.Fatalf("apply-create failed: %q", v)
			}
			// Apply transforms the existing value.
			err = e.Apply("k", func(old []byte, exists bool) ([]byte, error) {
				if !exists || string(old) != "created" {
					return nil, fmt.Errorf("bad old state: %q %v", old, exists)
				}
				return append(old, '!'), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := e.Get("k"); string(v) != "created!" {
				t.Fatalf("apply-update failed: %q", v)
			}
			// Errors abort without modification.
			boom := fmt.Errorf("boom")
			if err := e.Apply("k", func([]byte, bool) ([]byte, error) { return nil, boom }); err != boom {
				t.Fatalf("apply error = %v", err)
			}
			if v, _ := e.Get("k"); string(v) != "created!" {
				t.Fatalf("failed apply modified value: %q", v)
			}
			// Returning nil deletes.
			if err := e.Apply("k", func([]byte, bool) ([]byte, error) { return nil, nil }); err != nil {
				t.Fatal(err)
			}
			if _, ok := e.Get("k"); ok {
				t.Fatal("apply-delete did not delete")
			}
			if e.Len() != 0 {
				t.Fatalf("Len = %d after apply-delete", e.Len())
			}
		})
	}
}

func TestEngineScanOrderedAndBounded(t *testing.T) {
	for _, e := range allEngines(t, Options{Seed: 3}) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			perm := rand.New(rand.NewSource(9)).Perm(200)
			for _, i := range perm {
				e.Put(fmt.Sprintf("key%04d", i), []byte(fmt.Sprintf("val%d", i)))
			}
			kvs := e.Scan("key0050", 10)
			if len(kvs) != 10 {
				t.Fatalf("scan returned %d", len(kvs))
			}
			for i, kv := range kvs {
				want := fmt.Sprintf("key%04d", 50+i)
				if kv.Key != want {
					t.Fatalf("scan[%d] = %s, want %s", i, kv.Key, want)
				}
				if string(kv.Value) != fmt.Sprintf("val%d", 50+i) {
					t.Fatalf("scan[%d] value = %q", i, kv.Value)
				}
			}
			// Scan past the end.
			if kvs := e.Scan("key9999", 10); len(kvs) != 0 {
				t.Fatalf("tail scan returned %d", len(kvs))
			}
		})
	}
}

// TestEnginesAgreeWithModel is the cross-engine property test: both
// engines and a plain map model stay in lockstep under random operation
// sequences.
func TestEnginesAgreeWithModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		engines := []Engine{}
		for _, name := range EngineNames() {
			e, err := New(name, Options{Seed: seed, CacheDocs: 64})
			if err != nil {
				return false
			}
			defer e.Close()
			engines = append(engines, e)
		}
		model := map[string][]byte{}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%02d", r.Intn(40))
			switch r.Intn(5) {
			case 0, 1: // put
				val := []byte(fmt.Sprintf("v%d-%d", i, r.Intn(1000)))
				for _, e := range engines {
					e.Put(key, append([]byte(nil), val...))
				}
				model[key] = val
			case 2: // delete
				_, existed := model[key]
				for _, e := range engines {
					if e.Delete(key) != existed {
						t.Logf("%s: delete(%s) disagreed with model", e.Name(), key)
						return false
					}
				}
				delete(model, key)
			case 3: // get
				want, exists := model[key]
				for _, e := range engines {
					got, ok := e.Get(key)
					if ok != exists || (exists && !bytes.Equal(got, want)) {
						t.Logf("%s: get(%s) = %q,%v want %q,%v", e.Name(), key, got, ok, want, exists)
						return false
					}
				}
			case 4: // apply: append a byte
				for _, e := range engines {
					err := e.Apply(key, func(old []byte, exists bool) ([]byte, error) {
						n := append(append([]byte(nil), old...), 'x')
						return n, nil
					})
					if err != nil {
						t.Logf("%s: apply: %v", e.Name(), err)
						return false
					}
				}
				model[key] = append(append([]byte(nil), model[key]...), 'x')
			}
		}
		// Final state: all keys equal, scans identical.
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, e := range engines {
			if e.Len() != len(model) {
				t.Logf("%s: len %d != %d", e.Name(), e.Len(), len(model))
				return false
			}
			kvs := e.Scan("", len(model)+5)
			if len(kvs) != len(keys) {
				t.Logf("%s: scan len %d != %d", e.Name(), len(kvs), len(keys))
				return false
			}
			for i, kv := range kvs {
				if kv.Key != keys[i] || !bytes.Equal(kv.Value, model[kv.Key]) {
					t.Logf("%s: scan[%d] mismatch", e.Name(), i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConcurrentWriters(t *testing.T) {
	for _, e := range allEngines(t, Options{Seed: 4}) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			const workers = 8
			const perWorker = 500
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						key := fmt.Sprintf("w%d-k%d", w, i)
						e.Put(key, []byte(key))
						if v, ok := e.Get(key); !ok || string(v) != key {
							t.Errorf("read-after-write failed for %s", key)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if e.Len() != workers*perWorker {
				t.Fatalf("Len = %d, want %d", e.Len(), workers*perWorker)
			}
		})
	}
}

func TestEngineConcurrentSameKeyApply(t *testing.T) {
	// Apply must be atomic per key: concurrent increments cannot be lost.
	for _, e := range allEngines(t, Options{Seed: 5}) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			e.Put("counter", []byte{0, 0})
			const workers = 8
			const perWorker = 250
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						err := e.Apply("counter", func(old []byte, exists bool) ([]byte, error) {
							if !exists {
								return nil, fmt.Errorf("counter vanished")
							}
							n := uint16(old[0])<<8 | uint16(old[1])
							n++
							return []byte{byte(n >> 8), byte(n)}, nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			v, _ := e.Get("counter")
			n := uint16(v[0])<<8 | uint16(v[1])
			if int(n) != workers*perWorker {
				t.Fatalf("lost updates: counter = %d, want %d", n, workers*perWorker)
			}
		})
	}
}

func TestWiredTigerCompressionStats(t *testing.T) {
	e, _ := New(EngineWiredTiger, Options{Seed: 6})
	defer e.Close()
	// Highly compressible payloads must shrink on "disk".
	val := bytes.Repeat([]byte("abcabcabc "), 100)
	for i := 0; i < 50; i++ {
		e.Put(fmt.Sprintf("k%d", i), append([]byte(nil), val...))
	}
	st := e.Stats()
	if st.CompressionRatio() < 2 {
		t.Fatalf("compression ratio %.2f, expected > 2 for repetitive data", st.CompressionRatio())
	}
	// With compression disabled the ratio collapses to <= 1.
	e2, _ := New(EngineWiredTiger, Options{Seed: 6, DisableCompression: true})
	defer e2.Close()
	for i := 0; i < 50; i++ {
		e2.Put(fmt.Sprintf("k%d", i), append([]byte(nil), val...))
	}
	if r := e2.Stats().CompressionRatio(); r > 1.01 {
		t.Fatalf("disabled compression still reports ratio %.2f", r)
	}
}

func TestWiredTigerCacheCounters(t *testing.T) {
	e, _ := New(EngineWiredTiger, Options{Seed: 7, CacheDocs: 20000})
	defer e.Close()
	e.Put("hot", []byte("value"))
	for i := 0; i < 10; i++ {
		e.Get("hot")
	}
	st := e.Stats()
	if st.CacheHits < 9 {
		t.Fatalf("cache hits = %d, want >= 9 (writes warm the cache)", st.CacheHits)
	}
}

func TestWiredTigerCacheEviction(t *testing.T) {
	// Tiny cache: reading far more documents than fit must produce misses
	// on re-read (eviction), and still return correct data.
	e, _ := New(EngineWiredTiger, Options{Seed: 8, CacheDocs: wtStripeCount * 4})
	defer e.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k%06d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	for i := 0; i < n; i++ {
		v, ok := e.Get(fmt.Sprintf("k%06d", i))
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("wrong value after eviction churn: %q", v)
		}
	}
	if st := e.Stats(); st.CacheMisses == 0 {
		t.Fatal("expected cache misses with a tiny cache")
	}
}

func TestMMAPv1MovesOnGrowth(t *testing.T) {
	e, _ := New(EngineMMAPv1, Options{Seed: 9})
	defer e.Close()
	e.Put("doc", make([]byte, 40)) // padded to 64
	e.Put("doc", make([]byte, 60)) // fits in place
	if st := e.Stats(); st.Moves != 0 {
		t.Fatalf("in-place update counted as move: %d", st.Moves)
	}
	e.Put("doc", make([]byte, 100)) // outgrows 64 -> move
	if st := e.Stats(); st.Moves != 1 {
		t.Fatalf("growth should move once, got %d", st.Moves)
	}
	// Without padding every growth moves.
	e2, _ := New(EngineMMAPv1, Options{Seed: 9, DisablePadding: true})
	defer e2.Close()
	e2.Put("doc", make([]byte, 40))
	e2.Put("doc", make([]byte, 41))
	e2.Put("doc", make([]byte, 42))
	if st := e2.Stats(); st.Moves != 2 {
		t.Fatalf("unpadded growth moves = %d, want 2", st.Moves)
	}
}

func TestMMAPv1FreelistReuse(t *testing.T) {
	e, _ := New(EngineMMAPv1, Options{Seed: 10})
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.Put(fmt.Sprintf("k%d", i), make([]byte, 50))
	}
	before := e.Stats().BytesStored
	for i := 0; i < 100; i++ {
		e.Delete(fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 100; i++ {
		e.Put(fmt.Sprintf("r%d", i), make([]byte, 50))
	}
	after := e.Stats().BytesStored
	if after != before {
		t.Fatalf("freelist not reused: stored %d -> %d", before, after)
	}
}

func TestEngineStatsSnapshot(t *testing.T) {
	for _, e := range allEngines(t, Options{Seed: 11}) {
		e.Put("a", []byte("1"))
		e.Get("a")
		e.Get("nope")
		e.Scan("", 5)
		e.Delete("a")
		st := e.Stats()
		if st.Engine != e.Name() {
			t.Errorf("stats engine = %q", st.Engine)
		}
		if st.Writes != 1 || st.Reads != 2 || st.Scans != 1 || st.Deletes != 1 {
			t.Errorf("%s counters = %+v", e.Name(), st)
		}
		e.Close()
	}
}

func TestWiredTigerCheckpoints(t *testing.T) {
	e, _ := New(EngineWiredTiger, Options{Seed: 12, WriteLatency: NoIO})
	defer e.Close()
	// Write more than wtCheckpointBytes of (incompressible) data so the
	// journal cycles at least once.
	val := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(val)
	for i := 0; i < 80; i++ {
		e.Put(fmt.Sprintf("k%d", i), append([]byte(nil), val...))
	}
	if st := e.Stats(); st.Checkpoints == 0 {
		t.Fatalf("no checkpoints after %d bytes", 80*len(val))
	}
}

func TestIOBatcherQuantum(t *testing.T) {
	// latency 100us -> 10 writes per 1ms quantum.
	b := newIOBatcher(100 * time.Microsecond)
	if b.every != 10 || b.quantum != time.Millisecond {
		t.Fatalf("batcher = %+v", b)
	}
	// latency >= 1ms -> every write sleeps its own latency.
	b = newIOBatcher(2 * time.Millisecond)
	if b.every != 1 || b.quantum != 2*time.Millisecond {
		t.Fatalf("batcher = %+v", b)
	}
	// disabled
	b = newIOBatcher(0)
	if b.every != 0 {
		t.Fatalf("zero-latency batcher = %+v", b)
	}
	b.Tick() // must not sleep or panic
}

// TestWiredTigerCacheFollowsTheStore: the decompressed-document cache may
// never hold an older value than the store. Two writers race on one key,
// round after round; once both have returned, what Get serves (the cache)
// must be what Apply is handed (the stored image). A cache filled after
// the stripe lock is released lets the loser of the store race win the
// cache race, and the stale value then stays cached for good — which is
// how TestEngineConcurrentSameKeyApply lost an update once in ~60 runs.
func TestWiredTigerCacheFollowsTheStore(t *testing.T) {
	e, err := New(EngineWiredTiger, Options{Seed: 9, WriteLatency: NoIO})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 2000; round++ {
		key := fmt.Sprintf("k%d", round%7)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, val := range []string{"a", "b"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				e.Put(key, []byte(fmt.Sprint(val, round)))
			}()
		}
		wg.Add(1)
		go func() { // a reader filling the cache races them too
			defer wg.Done()
			<-start
			e.Get(key)
		}()
		close(start)
		wg.Wait()
		// Apply is handed the stored image; refusing the change leaves
		// store and cache as they are.
		var stored []byte
		peeked := errors.New("peeked")
		if err := e.Apply(key, func(old []byte, _ bool) ([]byte, error) {
			stored = append([]byte(nil), old...)
			return nil, peeked
		}); err != peeked {
			t.Fatal(err)
		}
		if cached, _ := e.Get(key); !bytes.Equal(cached, stored) {
			t.Fatalf("round %d: Get serves %q while the store holds %q", round, cached, stored)
		}
	}
}
