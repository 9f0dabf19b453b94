package trace

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestRNGMatchesMathRand: the package's inlinable source must replay the
// standard generator's value stream exactly, draw for draw, or every trace
// (and every experiment result built on one) would change.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 7919, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max + 1, int32max - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := int64(0); len(seeds) < 1024; i++ {
		seeds = append(seeds, i*104729-50_000_000, -(i * 15485863))
	}
	ns := []int64{1, 2, 3, 7, 64, 1000, 1 << 20, 3 << 40, 1<<62 + 1, math.MaxInt64}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got rngSource
		got.Seed(seed)
		for k := 0; k < 64; k++ {
			n := ns[k%len(ns)]
			switch k % 4 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, k, g, w)
				}
			case 1:
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, want %d", seed, k, n, g, w)
				}
			case 2:
				if g, w := got.Intn(int(n)), want.Intn(int(n)); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, k, n, g, w)
				}
			case 3:
				m := k % 9
				g, w := got.Perm(m), want.Perm(m)
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("seed %d draw %d: Perm(%d) %v, want %v", seed, k, m, g, w)
					}
				}
			}
		}
	}
}

// TestNoStdlibRandOutsideTests: the generators draw only from rngSource;
// the standard package is for checking it, in tests.
func TestNoStdlibRandOutsideTests(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "math/rand") {
			t.Errorf("%s mentions math/rand; only test files may", name)
		}
	}
}
