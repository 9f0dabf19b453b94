package experiments

import "testing"

// FuzzParsePolicy feeds arbitrary bytes to the -policy grammar. ParsePolicy
// must never panic, and every field of a policy it accepts is either unset
// (0) or inside the grammar's range: reserve and srmin >= 1, window and
// threshold > 0. The seed corpus under testdata/fuzz/FuzzParsePolicy holds
// the specs of this package's tests and the README.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		if p.Reserve < 0 || p.SRMinStandby < 0 || p.ProfilingWindow < 0 || p.ProfilingThreshold < 0 {
			t.Fatalf("ParsePolicy(%q) accepted out-of-range fields %+v", s, p)
		}
	})
}
