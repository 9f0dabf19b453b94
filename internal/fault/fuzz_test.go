package fault

import (
	"strconv"
	"strings"
	"testing"
)

// maxFuzzExpanderSweep bounds the dense ForExpander sweep below; past it the
// fuzzer checks the expanders the clauses name, which is where every clause
// can land (ForExpander of any other index is empty by construction).
const maxFuzzExpanderSweep = 1024

// FuzzParse feeds arbitrary bytes to the spec grammar. Parse must never
// panic; for a spec it accepts, MaxExpander and ForExpander must not panic
// either, and the per-expander projections must partition the clauses:
// every clause lands on exactly one expander (unscoped ones on expander 0),
// and comes out unscoped. An accepted rank target carries nothing after its
// rank digits. The seed corpus under testdata/fuzz/FuzzParse holds
// the specs of this package's tests and the README.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		max := spec.MaxExpander()
		if max < AnyExpander {
			t.Fatalf("Parse(%q).MaxExpander() = %d, below AnyExpander", s, max)
		}
		xs := map[int]bool{0: true}
		if max >= 0 {
			xs[max] = true
		}
		for x := 0; x <= max && x <= maxFuzzExpanderSweep; x++ {
			xs[x] = true
		}
		for _, c := range spec.Clauses {
			if c.Expander > max {
				t.Fatalf("Parse(%q): clause on x%d above MaxExpander %d", s, c.Expander, max)
			}
			if c.Expander >= 0 {
				xs[c.Expander] = true
			}
		}
		projected := 0
		for x := range xs {
			sub := spec.ForExpander(x)
			for _, c := range sub.Clauses {
				if c.Expander != AnyExpander {
					t.Fatalf("Parse(%q).ForExpander(%d) kept scope x%d", s, x, c.Expander)
				}
			}
			if got := sub.MaxExpander(); got != AnyExpander {
				t.Fatalf("Parse(%q).ForExpander(%d).MaxExpander() = %d", s, x, got)
			}
			projected += len(sub.Clauses)
		}
		if projected != len(spec.Clauses) {
			t.Fatalf("Parse(%q): expander projections hold %d clauses, spec has %d", s, projected, len(spec.Clauses))
		}
		i := 0
		for _, raw := range strings.Split(s, ";") {
			part := strings.TrimSpace(raw)
			if part == "" || strings.HasPrefix(part, "seed=") {
				continue
			}
			c := spec.Clauses[i]
			i++
			if c.Kind == PSU {
				continue
			}
			target := strings.TrimSpace(strings.SplitN(part, ":", 3)[1])
			j := strings.LastIndex(target, "rk")
			if j < 0 {
				t.Fatalf("Parse(%q) accepted rank target %q without rk", s, target)
			}
			if n, err := strconv.Atoi(strings.TrimSpace(target[j+2:])); err != nil || n != c.Rank.Rank {
				t.Fatalf("Parse(%q) read rank %d from target %q", s, c.Rank.Rank, target)
			}
		}
	})
}
