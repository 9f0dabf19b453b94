package experiments

import (
	"fmt"

	"dtl/internal/cache"
	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/trace"
)

// Table2 prints the normalized power of each DRAM power state.
func Table2(o Options) Result {
	pm := dram.DefaultPowerModel()
	res := newResult("Table2", "Normalized power per DRAM state",
		fmt.Sprintf("standby %s, self-refresh %s, MPSM %s", dram.FormatPower(pm.StandbyPower),
			dram.FormatPower(pm.SelfRefreshPower), dram.FormatPower(pm.MPSMPower)))
	w := o.out()
	res.header(w)

	tab := metrics.NewTable("state", "normalized power")
	for _, s := range []dram.PowerState{dram.Standby, dram.SelfRefresh, dram.MPSM} {
		tab.AddRowf("%s\t%.3f", s, pm.Background(s))
		res.Metrics[s.String()] = pm.Background(s)
	}
	tab.Render(w)
	res.footer(w)
	return res
}

// Table4 measures post-cache MAPKI for each workload by filtering the raw
// generator stream through the Table 3 cache hierarchy.
func Table4(o Options) Result {
	res := newResult("Table4", "Memory accesses per kilo-instruction",
		"MAPKI between 0.7 (web-search/-serving) and 6.5 (graph-analytics)")
	w := o.out()
	res.header(w)

	n := o.scaled(2_000_000, 200_000)
	tab := metrics.NewTable("workload", "target MAPKI", "measured MAPKI", "ratio")
	h := cache.MustTable3()
	for _, p := range trace.CloudSuite() {
		p.FootprintBytes = 1 << 30
		if o.Quick {
			p.FootprintBytes = 256 << 20
		}
		g := trace.MustGenerator(p, o.Seed)
		h.Reset()
		var mem int64
		for i := 0; i < n; i++ {
			a := g.NextRaw()
			mem += int64(len(h.Access(a.Addr, a.Write)))
		}
		measured := float64(mem) / (float64(g.Instr()) / 1000.0)
		tab.AddRowf("%s\t%.1f\t%.2f\t%.2f", p.Name, p.MAPKI, measured, measured/p.MAPKI)
		res.Metrics["mapki_"+p.Name] = measured
	}
	tab.Render(w)
	res.footer(w)
	return res
}

// Table5 prints the metadata structure sizes for the 384 GB and 4 TB
// devices.
func Table5(o Options) Result {
	res := newResult("Table5", "Metadata structure sizes",
		"SRAM grows 0.5MB -> 5.3MB, DRAM structures 1.9MB -> 22.6MB; 0.0005% of capacity")
	w := o.out()
	res.header(w)

	small := core.DefaultConfig(dram.Geometry{
		Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 12 * dram.GiB, // 384 GiB
	})
	big := core.DefaultConfig(dram.Hypothetical4TB())
	ss, bs := small.Sizes(), big.Sizes()

	tab := metrics.NewTable("structure", "384GB", "4TB")
	row := func(name string, a, b int64) {
		tab.AddRowf("%s\t%s\t%s", name, dram.FormatBytes(a), dram.FormatBytes(b))
	}
	row("L1 segment mapping cache", ss.L1SMCBytes, bs.L1SMCBytes)
	row("L2 segment mapping cache", ss.L2SMCBytes, bs.L2SMCBytes)
	row("host base addr table", ss.HostBaseTableBytes, bs.HostBaseTableBytes)
	row("AU base addr table", ss.AUBaseTableBytes, bs.AUBaseTableBytes)
	row("hot-cold migration table", ss.MigrationTableBytes, bs.MigrationTableBytes)
	row("segment mapping table", ss.SegmentMapTableBytes, bs.SegmentMapTableBytes)
	row("reverse mapping table", ss.ReverseMapTableBytes, bs.ReverseMapTableBytes)
	row("free segment queues", ss.FreeQueueBytes, bs.FreeQueueBytes)
	row("allocated segment queues", ss.AllocQueueBytes, bs.AllocQueueBytes)
	row("free AU queue", ss.FreeAUQueueBytes, bs.FreeAUQueueBytes)
	row("total SRAM", ss.TotalSRAM(), bs.TotalSRAM())
	row("total DRAM", ss.TotalDRAM(), bs.TotalDRAM())
	tab.Render(w)

	frac := float64(bs.TotalDRAM()) / float64(big.Geometry.TotalBytes())
	fmt.Fprintf(w, "\n4TB DRAM-resident metadata is %.5f%% of capacity (paper: 0.0005%%)\n", frac*100)
	res.Metrics["sram_4tb_mb"] = float64(bs.TotalSRAM()) / (1 << 20)
	res.Metrics["dram_4tb_mb"] = float64(bs.TotalDRAM()) / (1 << 20)
	res.Metrics["capacity_fraction"] = frac
	res.footer(w)
	return res
}

// Table6 prints the controller power/area estimate at 7 nm.
func Table6(o Options) Result {
	res := newResult("Table6", "CXL controller power and area at 7nm",
		"25.7mW / 0.165mm2 at 384GB; 36.2mW / 1.1mm2 at 4TB")
	w := o.out()
	res.header(w)

	small := core.DefaultConfig(dram.Geometry{
		Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 12 * dram.GiB,
	}).Controller(7)
	big := core.DefaultConfig(dram.Hypothetical4TB()).Controller(7)

	tab := metrics.NewTable("component", "power mW (384GB/4TB)", "area mm2 (384GB/4TB)")
	tab.AddRowf("segment mapping cache\t%.1f / %.1f\t%.4f / %.4f",
		small.SMCPowerMW, big.SMCPowerMW, small.SMCAreaMM2, big.SMCAreaMM2)
	tab.AddRowf("SRAM structures\t%.1f / %.1f\t%.3f / %.3f",
		small.SRAMPowerMW, big.SRAMPowerMW, small.SRAMAreaMM2, big.SRAMAreaMM2)
	tab.AddRowf("microprocessor\t%.1f / %.1f\t%.4f / %.4f",
		small.CPUPowerMW, big.CPUPowerMW, small.CPUAreaMM2, big.CPUAreaMM2)
	tab.AddRowf("total\t%.1f / %.1f\t%.3f / %.3f",
		small.TotalPowerMW, big.TotalPowerMW, small.TotalAreaMM2, big.TotalAreaMM2)
	tab.Render(w)

	res.Metrics["power_384gb_mw"] = small.TotalPowerMW
	res.Metrics["power_4tb_mw"] = big.TotalPowerMW
	res.Metrics["area_384gb_mm2"] = small.TotalAreaMM2
	res.Metrics["area_4tb_mm2"] = big.TotalAreaMM2
	res.footer(w)
	return res
}
