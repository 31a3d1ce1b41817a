package skiplist

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSkiplistBasics(t *testing.T) {
	s := New(1)
	if s.Len() != 0 {
		t.Fatal("new skiplist not empty")
	}
	if got := s.From("", 10); len(got) != 0 {
		t.Fatalf("empty From = %v", got)
	}
	if !s.Insert("b") || !s.Insert("a") || !s.Insert("c") {
		t.Fatal("fresh inserts reported existing")
	}
	if s.Insert("a") {
		t.Fatal("duplicate insert reported new")
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	got := s.From("", 10)
	want := []string{"a", "b", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("From = %v", got)
	}
	if got := s.From("b", 10); fmt.Sprint(got) != fmt.Sprint([]string{"b", "c"}) {
		t.Fatalf("From(b) = %v", got)
	}
	if got := s.From("bb", 10); fmt.Sprint(got) != fmt.Sprint([]string{"c"}) {
		t.Fatalf("From(bb) = %v", got)
	}
	if got := s.From("a", 2); len(got) != 2 {
		t.Fatalf("limit ignored: %v", got)
	}
	if got := s.From("d", 10); len(got) != 0 {
		t.Fatalf("From past the end = %v", got)
	}
}

// TestSkiplistAgainstSortedSet: random insert sequences agree with a
// map+sort model, including iteration order (property).
func TestSkiplistAgainstSortedSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 0))
		s := New(seed)
		model := map[string]bool{}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%03d", r.IntN(200))
			if gotNew := s.Insert(key); gotNew != !model[key] {
				t.Logf("Insert(%s) = %v, model %v", key, gotNew, model[key])
				return false
			}
			model[key] = true
		}
		if s.Len() != len(model) {
			t.Logf("len %d != model %d", s.Len(), len(model))
			return false
		}
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		if got := s.From("", len(model)+10); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Logf("order: got %v want %v", got, want)
			return false
		}
		// From a mid key agrees with the model's tail.
		mid := want[len(want)/2]
		if got := s.From(mid, len(want)); fmt.Sprint(got) != fmt.Sprint(want[len(want)/2:]) {
			t.Logf("tail: got %v want %v", got, want[len(want)/2:])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSkiplistFromMatchesSortedSlice is the model check of From: after
// random inserts with duplicates, From at random starts (present keys,
// absent keys, and keys past both ends) with random limits returns the
// window a sorted, de-duplicated slice gives, under two seeds.
func TestSkiplistFromMatchesSortedSlice(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(seed), 1))
			s := New(seed)
			var model []string
			key := func() string { return fmt.Sprintf("k%04d", r.IntN(3000)) }
			for i := 0; i < 2000; i++ {
				k := key()
				if i%4 == 0 && len(model) > 0 {
					k = model[r.IntN(len(model))] // a duplicate on purpose
				}
				at, found := slices.BinarySearch(model, k)
				if s.Insert(k) == found {
					t.Fatalf("Insert(%s) reported new=%v with the key present=%v", k, !found, found)
				}
				if !found {
					model = slices.Insert(model, at, k)
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
			}
			for q := 0; q < 500; q++ {
				start := key()
				switch q % 5 {
				case 0:
					start = model[r.IntN(len(model))]
				case 1:
					start = start + "~" // between two keys
				case 2:
					start = []string{"", "a", "z"}[r.IntN(3)] // before and past both ends
				}
				limit := r.IntN(40)
				lo, _ := slices.BinarySearch(model, start)
				want := model[lo:min(lo+limit, len(model))]
				if got := s.From(start, limit); !slices.Equal(got, want) {
					t.Fatalf("From(%q, %d) = %v, want %v", start, limit, got, want)
				}
			}
		})
	}
}

func TestSkiplistLargeOrdered(t *testing.T) {
	s := New(7)
	const n = 10000
	perm := rand.New(rand.NewPCG(3, 0)).Perm(n)
	for _, i := range perm {
		s.Insert(fmt.Sprintf("key%06d", i))
	}
	if s.Len() != n {
		t.Fatalf("len = %d", s.Len())
	}
	keys := s.From("", n)
	if len(keys) != n {
		t.Fatalf("From returned %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("out of order at %d: %s >= %s", i, keys[i-1], keys[i])
		}
	}
}

// TestSkiplistSeeded: two lists with one seed fed the same keys grow the
// same towers, level by level.
func TestSkiplistSeeded(t *testing.T) {
	a, b := New(3), New(3)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", (i*97)%200)
		a.Insert(k)
		b.Insert(k)
	}
	if a.Len() != 200 || b.Len() != 200 {
		t.Fatalf("len = %d/%d", a.Len(), b.Len())
	}
	if a.level != b.level {
		t.Fatalf("levels %d / %d", a.level, b.level)
	}
	for lvl := 0; lvl < a.level; lvl++ {
		x, y := a.head.next[lvl], b.head.next[lvl]
		for x != nil && y != nil && x.key == y.key {
			x, y = x.next[lvl], y.next[lvl]
		}
		if x != nil || y != nil {
			t.Fatalf("seeded skiplists diverge at level %d", lvl)
		}
	}
	if ka := a.From("", 200); !sort.StringsAreSorted(ka) || len(ka) != 200 {
		t.Fatal("iteration not ordered")
	}
}
