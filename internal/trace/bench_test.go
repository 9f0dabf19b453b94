package trace

import "testing"

// BenchmarkMixedNext measures one access of the raw replay workload's
// stream: the ten CloudSuite profiles at 16 GiB each, merged by Mixed.
func BenchmarkMixedNext(b *testing.B) {
	ps := CloudSuite()
	for i := range ps {
		ps[i].FootprintBytes = 16 << 30
	}
	m := MustMixed(ps, 7)
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Next().Addr
	}
	if sink == 0 {
		b.Fatal("stream addressed nothing")
	}
}
