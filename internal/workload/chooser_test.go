package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// TestChooserDigests pins every distribution's draws bit for bit: a
// SHA-256 over 100,000 keys drawn by one seeded worker. The constants were
// taken before the choosers were optimised (the hoisted Zipfian constant,
// the inline FNV-1a), so a faster chooser that draws a different key
// fails here before it moves a result.
func TestChooserDigests(t *testing.T) {
	const draws = 100_000
	for _, tc := range []struct {
		name   string
		dist   string
		n      int64
		grow   bool // raise the domain by one every tenth draw
		digest string
	}{
		{"uniform", "uniform", 1000, false, "c1671af2ae233e74225fd4a95ffbd58677cd1faff8a59bea67b43e242fd34890"},
		{"zipfian", "zipfian", 1000, false, "05edceb902cf6025e1155a076661127d18e20549fd41a27bea0f75abcfed6d17"},
		{"latest_fixed", "latest", 1000, false, "ebedcfc2bc959b22d891352ea6afe9897659452fd6e60041ce1d934f7a1c0c39"},
		{"latest_growing", "latest", 100, true, "d07aa5c92c2f7e10867aad4e671fafbfcb26db16bde929f19ce14fb287977059"},
		{"sequential", "sequential", 1000, false, "a4d005e92fcc9066403cd93c2f162b279f22dbd6fb66335ed31e8c10380f87b7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewChooser(tc.dist, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			r := testRand(2026)
			h := sha256.New()
			var b [8]byte
			n := tc.n
			for i := 0; i < draws; i++ {
				if tc.grow && i%10 == 9 {
					n++
					c.(*Latest).GrowTo(n)
				}
				k := c.Next(r)
				if k < 0 || k >= n {
					t.Fatalf("draw %d: key %d outside [0, %d)", i, k, n)
				}
				binary.LittleEndian.PutUint64(b[:], uint64(k))
				h.Write(b[:])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
				t.Errorf("digest of %d draws = %s, want %s", draws, got, tc.digest)
			}
		})
	}
}
