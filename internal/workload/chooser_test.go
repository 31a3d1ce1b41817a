package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
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

// FuzzZipfianMatchesPow: Zipfian.Next draws the key the math.Pow
// expression draws, for every u that rand.Float64 can return and every n
// in [1, 1e8], whether it squares its way to x^100 or asks Pow. The
// committed seeds include adversarial ones: u solved from
// (k/items)^(1/alpha) for an integer k, then moved by up to 4 ulps, so
// that q lands next to an integer and the fallback decides the key.
//
// A zeta sum over 1e8 items takes seconds, so past 10,000 items the
// target builds its Zipfian from zetaTail's estimate of zeta(n). Which
// constants the chooser holds does not matter to the property: both
// paths read the same ones.
func FuzzZipfianMatchesPow(f *testing.F) {
	f.Add(uint64(1000), math.Float64bits(ZipfianTheta), uint64(1)<<52)
	f.Add(uint64(99_999_999), math.Float64bits(ZipfianTheta), uint64(1)<<53-1)
	f.Add(uint64(5000), math.Float64bits(0.5), uint64(12345))
	f.Fuzz(func(t *testing.T, n, thetaBits, uBits uint64) {
		items := int64(1 + n%100_000_000)
		theta := math.Float64frombits(thetaBits)
		if !(theta > 0 && theta < 1) {
			theta = ZipfianTheta
		}
		z := zipfianForFuzz(items, theta)
		src := fixedSource(uBits)
		u := rand.New(&src).Float64()
		var want int64
		switch uz := u * z.zetan; {
		case uz < 1:
			want = 0
		case uz < z.second:
			want = 1
		default:
			want = int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		}
		if got := z.Next(rand.New(&src)); got != want {
			t.Fatalf("n=%d theta=%v u=%v (bits %d): Next = %d, math.Pow gives %d", items, theta, u, uBits, got, want)
		}
	})
}

// fixedSource is a rand source that always returns itself: rand.Float64
// over it is its low 53 bits over 2^53.
type fixedSource uint64

func (s *fixedSource) Uint64() uint64 { return uint64(*s) }

// zipfianForFuzz builds the Zipfian over items with skew theta: exactly up
// to 10,000 items, with zetaTail's zeta(n) past that.
func zipfianForFuzz(items int64, theta float64) *Zipfian {
	const exact = 10_000
	if items <= exact {
		return NewZipfianTheta(items, theta)
	}
	return newZipfian(items, theta, zetaStatic(exact, theta)+zetaTail(exact, items, theta))
}

// zetaTail estimates the sum of i^-theta for i in (m, n] by the
// Euler–Maclaurin formula to its first-derivative term. From m = 10,000
// the estimate of zeta(n) is within 4e-14 of the summed one up to three
// million items, about what the sum's own rounding leaves.
func zetaTail(m, n int64, theta float64) float64 {
	f := func(x float64) float64 { return math.Pow(x, -theta) }
	df := func(x float64) float64 { return -theta * math.Pow(x, -theta-1) }
	a, b := float64(m), float64(n)
	integral := (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	return integral + (f(b)-f(a))/2 + (df(b)-df(a))/12
}
