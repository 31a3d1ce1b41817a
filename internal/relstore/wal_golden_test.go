package relstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWALBytesGolden pins the bytes a fixed commit script leaves in the
// WAL segments: the frame header, the ops record and CreateTable
// payloads and the row codec together. A change that means to keep the
// on-disk format must leave the hash as it is; one that changes the
// format changes it on purpose, and every store written before it.
//
// The script covers CreateTable frames (one opening the log, one in a
// later segment), every column type, nullable columns both present and
// absent, multi-op records that also advance sequences on one or two
// tables, rewrites of existing rows, and rows whose encoding is exactly
// 127, 128, 16,383 and 16,384 bytes, so each put's row-length prefix is
// written one, two and three bytes wide. Segments rotate at 4 KiB, so
// the log spans many of them.
func TestWALBytesGolden(t *testing.T) {
	const (
		wantSegments = 19
		wantSHA256   = "9b43fcfeb1db3aafb02dac6eab73160a0bbda056fc6e8605953efb76d7188f2b"
	)
	dir := t.TempDir()
	db, err := Open(dir, &Options{Sync: SyncBatched, CompactEvery: -1, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	update := func(fn func(tx *Tx) error) {
		t.Helper()
		if err := db.Update(fn); err != nil {
			t.Fatal(err)
		}
	}

	epoch := time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)
	user := func(i int) Row {
		r := Row{
			"id":      fmt.Sprintf("u%04d", i%97),
			"name":    fmt.Sprintf("team-%d", i%7),
			"age":     int64(i*7919 - 500_000),
			"admin":   i%3 == 0,
			"created": epoch.Add(time.Duration(i) * 36 * time.Hour),
		}
		if i%2 == 0 {
			r["score"] = int64(-i)
		}
		if i%5 == 0 {
			r["avatar"] = []byte(strings.Repeat(fmt.Sprintf("%02x", i), i%40))
		}
		return r
	}
	// sized returns a user row whose encoding is exactly n bytes. The
	// avatar's own length prefix widens at 128 bytes, which skips a
	// total, so the name takes up a byte where the avatar cannot.
	codec := newRowCodec(usersSchema())
	sized := func(n int) Row {
		t.Helper()
		for l := n; l >= 0; l-- {
			for _, pad := range []string{"", "x"} {
				r := Row{"id": fmt.Sprintf("s%05d", n), "name": "sized" + pad, "age": int64(n), "admin": true,
					"created": epoch, "avatar": []byte(strings.Repeat("ab", l)[:l])}
				b, err := codec.appendRow(nil, r)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == n {
					return r
				}
			}
		}
		t.Fatalf("no row encodes to %d bytes", n)
		return nil
	}

	rng := rand.New(rand.NewSource(53))
	sizes := map[int]int{40: 127, 41: 128, 120: 16383, 121: 16384, 200: 128, 201: 127}
	for i := 0; i < 300; i++ {
		if i == 150 {
			if err := db.CreateTable(fuzzSchema); err != nil {
				t.Fatal(err)
			}
		}
		if n, ok := sizes[i]; ok {
			update(func(tx *Tx) error { return tx.Put("users", sized(n)) })
			continue
		}
		update(func(tx *Tx) error {
			for j := rng.Intn(4); j >= 0; j-- {
				if err := tx.Put("users", user(rng.Intn(1000))); err != nil {
					return err
				}
			}
			if rng.Intn(3) == 0 {
				if _, err := tx.NextSeq("users"); err != nil {
					return err
				}
			}
			if i > 150 && rng.Intn(2) == 0 {
				seq, err := tx.NextSeq("t")
				if err != nil {
					return err
				}
				r := Row{"r": fmt.Sprintf("r%d", seq)}
				if seq%3 != 0 {
					r["v"] = seq * -1000
				}
				return tx.Put("t", r)
			}
			return nil
		})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, seq := range seqs {
		b, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(seqs) != wantSegments || got != wantSHA256 {
		t.Fatalf("WAL of the golden script: %d segments, sha256 %s; want %d segments, sha256 %s",
			len(seqs), got, wantSegments, wantSHA256)
	}
}
