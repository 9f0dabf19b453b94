package trace

import "testing"

// BenchmarkMixedNext measures the consumer side of one access of the raw
// replay workload's stream: the ten CloudSuite profiles at 16 GiB each,
// merged by Mixed. The loop does nothing else, so it always waits on the
// producer, which keeps running while a buffer is free: each op costs what
// generating one access does, the generation rate. BenchmarkMixedReplay
// (internal/memctrl) times Next in the replay loop's state.
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
