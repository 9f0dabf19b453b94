package dtl

// The benchmark harness regenerates every table and figure of the paper at
// reduced (Quick) scale, reporting each experiment's headline metric through
// b.ReportMetric so `go test -bench` output doubles as a results summary.
// Ablation benchmarks cover the design choices DESIGN.md calls out: segment
// size, SMC sizing, profiling threshold, TSP timeout, and rank-group versus
// per-rank power-down granularity.

import (
	"bufio"
	"io"
	"testing"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/experiments"
	"dtl/internal/telemetry"
	"dtl/internal/trace"
)

// benchExperiment runs one registered experiment per iteration and reports
// its metrics.
func benchExperiment(b *testing.B, id string, keys ...string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := experiments.Options{Quick: true, Seed: 1}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = r.Run(opts)
	}
	for _, k := range keys {
		b.ReportMetric(res.Metrics[k], k)
	}
}

func BenchmarkFig1(b *testing.B) {
	benchExperiment(b, "fig1", "mean_mem_utilization")
}

func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2", "slowdown_2ranks")
}

func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", "loss_local", "loss_cxl")
}

func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", "channel_interleaved", "rank_bits_msb")
}

func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9", "mix8_ge4mb_share")
}

func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10", "cold_2mb_mean", "cold_4mb_mean")
}

func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", "bg_norm_2ranks")
}

func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", "energy_saving", "perf_overhead")
}

func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13", "background_saving", "total_saving")
}

func BenchmarkFig14(b *testing.B) {
	benchExperiment(b, "fig14", "saving_26gib-5grp", "saving_34gib-5grp")
}

func BenchmarkFig15(b *testing.B) {
	benchExperiment(b, "fig15", "total_26gib-5grp", "total_50gib-8grp")
}

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "mpsm")
}

func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4", "mapki_graph-analytics")
}

func BenchmarkTable5(b *testing.B) {
	benchExperiment(b, "table5", "sram_4tb_mb", "dram_4tb_mb")
}

func BenchmarkTable6(b *testing.B) {
	benchExperiment(b, "table6", "power_384gb_mw")
}

func BenchmarkAMAT(b *testing.B) {
	benchExperiment(b, "amat", "translation_ns", "amat_ns")
}

// --- Microbenchmarks of the core datapath ---

// BenchmarkAccessPath measures the per-access cost of the full DTL pipeline
// (SMC lookup, translation, timing model, hotness bookkeeping).
func BenchmarkAccessPath(b *testing.B) {
	cfg := core.DefaultConfig(smallGeometry())
	cfg.AUBytes = 16 * dram.MiB
	dev, err := Open(WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := dev.AllocateVM(1, 0, 512*dram.MiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := trace.ProfileByName("data-caching")
	p.FootprintBytes = 512 * dram.MiB
	g := trace.MustGenerator(p, 1)
	now := Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		if _, err := dev.Read(alloc.AUBases[0]+HPA(a.Addr), now); err != nil {
			b.Fatal(err)
		}
		now += 10
	}
}

// BenchmarkAttributedAccessPath is BenchmarkAccessPath with the attribution
// ledger attached: every access additionally charges its latency to the
// owning (vm, rank, cause) ledger cells. The gate (3x AccessPath's baseline,
// 0 allocs/op) bounds the observability tax on the hot path.
func BenchmarkAttributedAccessPath(b *testing.B) {
	cfg := core.DefaultConfig(smallGeometry())
	cfg.AUBytes = 16 * dram.MiB
	dev, err := Open(WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	dev.Core().StartLedger()
	alloc, err := dev.AllocateVM(1, 0, 512*dram.MiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := trace.ProfileByName("data-caching")
	p.FootprintBytes = 512 * dram.MiB
	g := trace.MustGenerator(p, 1)
	now := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		if _, err := dev.Read(alloc.AUBases[0]+HPA(a.Addr), now); err != nil {
			b.Fatal(err)
		}
		now += 10
	}
}

// BenchmarkAllocDealloc measures the VM lifecycle including the power-down
// consolidation check.
func BenchmarkAllocDealloc(b *testing.B) {
	cfg := core.DefaultConfig(smallGeometry())
	cfg.AUBytes = 16 * dram.MiB
	dev, err := Open(WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	now := Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1000
		if _, err := dev.AllocateVM(VMID(i), 0, 64*dram.MiB, now); err != nil {
			b.Fatal(err)
		}
		now += 1000
		if err := dev.DeallocateVM(VMID(i), now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMChurnDrain measures a VM lifecycle whose deallocation drains a
// rank group, the §3.3 power-down path the schedule experiments replay
// thousands of times. Each iteration starts with a 144 MiB filler alone in
// the one active 256 MiB rank group: a 160 MiB VM wakes a second group, a
// 64 MiB VM lands there, freeing the 160 MiB VM drains the 64 MiB VM's 32
// segments into the first group so the second powers down, and freeing the
// 64 MiB VM restores the starting state.
func BenchmarkVMChurnDrain(b *testing.B) {
	cfg := core.DefaultConfig(smallGeometry())
	cfg.AUBytes = 16 * dram.MiB
	dev, err := Open(WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	// Steps of 1 ms let each drain's copies (8 per channel, ~100 µs each)
	// retire before the next one, so the migration queue stays short.
	const step = Time(1_000_000)
	now := Time(0)
	if _, err := dev.AllocateVM(1, 0, 144*dram.MiB, now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += step
		if _, err := dev.AllocateVM(2, 0, 160*dram.MiB, now); err != nil {
			b.Fatal(err)
		}
		now += step
		if _, err := dev.AllocateVM(3, 0, 64*dram.MiB, now); err != nil {
			b.Fatal(err)
		}
		now += step
		if err := dev.DeallocateVM(2, now); err != nil {
			b.Fatal(err)
		}
		now += step
		if err := dev.DeallocateVM(3, now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := dev.Stats().SegmentsMigrated, int64(b.N)*32; got != want {
		b.Fatalf("migrated %d segments over %d iterations, want %d", got, b.N, want)
	}
}

// BenchmarkScheduleDrain is BenchmarkVMChurnDrain on the device the
// schedule experiments (fig12, faults, rack) run: 4 channels × 8 ranks of
// 12 GiB, whose 6,144 segments per rank are not a power of two, with the
// default 2 GiB allocation units, so every freed AU takes the SMC's range
// sweep. Each iteration starts with a 40 GiB filler alone in the one active
// 48 GiB rank group: a 36 GiB VM wakes a second group, an 8 GiB VM lands
// there, freeing the 36 GiB VM drains the 8 GiB VM's 4,096 segments into
// the first group so the second powers down, and freeing the 8 GiB VM
// restores the starting state.
//
// The bare sub-benchmark runs with no sink attached. The sinks one streams
// JSONL into a buffered io.Discard and keeps a cost ledger, as the
// schedule runners do, so each drain move also writes its migration and
// attribution records and charges the ledger.
func BenchmarkScheduleDrain(b *testing.B) {
	b.Run("bare", func(b *testing.B) { benchScheduleDrain(b, false) })
	b.Run("sinks", func(b *testing.B) { benchScheduleDrain(b, true) })
}

func benchScheduleDrain(b *testing.B, sinks bool) {
	cfg := core.DefaultConfig(dram.Geometry{
		Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 12 * dram.GiB,
	})
	dev, err := Open(WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	// Steps of 1 s let each drain's copies (1,024 per channel) retire
	// before the next one, so the migration queue stays short.
	const step = Time(1_000_000_000)
	now := Time(0)
	var ts *telemetry.TraceStream
	if sinks {
		ts = telemetry.NewTraceStream(bufio.NewWriterSize(io.Discard, 64<<10))
		dev.StartTrace(now).AttachStream(ts)
		dev.Core().StartLedger()
	}
	if _, err := dev.AllocateVM(1, 0, 40*dram.GiB, now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += step
		if _, err := dev.AllocateVM(2, 0, 36*dram.GiB, now); err != nil {
			b.Fatal(err)
		}
		now += step
		if _, err := dev.AllocateVM(3, 0, 8*dram.GiB, now); err != nil {
			b.Fatal(err)
		}
		now += step
		if err := dev.DeallocateVM(2, now); err != nil {
			b.Fatal(err)
		}
		now += step
		if err := dev.DeallocateVM(3, now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := dev.Stats().SegmentsMigrated, int64(b.N)*4096; got != want {
		b.Fatalf("migrated %d segments over %d iterations, want %d", got, b.N, want)
	}
	// Each drain move writes a migration record and an attr record.
	if err := ts.Err(); err != nil {
		b.Fatal(err)
	}
	if sinks && ts.Rows() < 2*b.N*4096 {
		b.Fatalf("streamed %d records over %d iterations, want at least %d", ts.Rows(), b.N, 2*b.N*4096)
	}
}

// --- Ablation benchmarks (design choices of §4.1, §3.4, §3.3) ---
// Each delegates to the registered abl-* experiment so `go test -bench`
// and `dtlsim -exp abl-...` report the same sweeps.

// BenchmarkAblationSegmentSize sweeps the translation granularity (§4.1).
func BenchmarkAblationSegmentSize(b *testing.B) {
	benchExperiment(b, "abl-segsize", "cold_1mb", "cold_2mb", "cold_4mb", "cold_8mb")
}

// BenchmarkAblationSMC sweeps the segment-mapping-cache sizing (§6.1).
func BenchmarkAblationSMC(b *testing.B) {
	benchExperiment(b, "abl-smc",
		"translation_ns_16x256", "translation_ns_64x1024", "translation_ns_256x4096")
}

// BenchmarkAblationProfilingThreshold sweeps the §3.4 idle threshold.
func BenchmarkAblationProfilingThreshold(b *testing.B) {
	benchExperiment(b, "abl-threshold", "sr_enters_50us", "sr_enters_100us", "sr_enters_400us")
}

// BenchmarkAblationTSPTimeout sweeps the CLOCK-walk budget (§3.4).
func BenchmarkAblationTSPTimeout(b *testing.B) {
	benchExperiment(b, "abl-tsp", "sr_enters_b4", "sr_enters_b32", "sr_enters_b256")
}

// BenchmarkAblationRankGroup compares power-down granularities (§3.3).
func BenchmarkAblationRankGroup(b *testing.B) {
	benchExperiment(b, "abl-rankgroup", "bg_group_6free", "bg_perrank_6free")
}
