package report

import (
	"fmt"
	"sort"
	"strings"

	"smores/internal/codec"
	"smores/internal/core"
	"smores/internal/dbi"
	"smores/internal/floats"
	"smores/internal/gddr6x"
	"smores/internal/hwcost"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/stats"
)

// Paper-published reference values used in the comparison columns.
const (
	PaperPAM4PerBit        = 528.8
	PaperPAM4DBIPerBit     = 446.5
	PaperMTAPerBit         = 574.8
	PaperMTAPostPerBit     = 900.2
	PaperVariableSaving    = 0.282
	PaperStaticSaving      = 0.268
	PaperConservSaving     = 0.252
	PaperPerfDegradation   = 0.00024
	PaperDRAMTotalPJPerBit = 7.25
)

// paperTable4 maps codec names to the paper's Table IV fJ/bit.
var paperTable4 = map[string]float64{
	"2b1s PAM4":     528.8,
	"2b1s PAM4/DBI": 446.5,
	"MTA":           574.8,
	"MTA+postamble": 900.2,
	"4b3s-3":        448.4,
	"4b3s-3/DBI":    432.3,
	"4b4s-3":        382.5,
	"4b4s-3/DBI":    374.8,
	"4b6s-3":        331.8,
	"4b6s-3/DBI":    331.4,
	"4b8s-3":        319.8,
	"4b8s-3/DBI":    319.7,
}

// Fig1SymbolEnergy renders the per-level current/energy table behind the
// paper's Figure 1.
func Fig1SymbolEnergy(m *pam4.EnergyModel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — PAM4 symbol energies (calibrated GDDR6X model)\n")
	fmt.Fprintf(&b, "%-6s %10s %12s %12s\n", "level", "volts", "current(mA)", "energy(fJ)")
	pts := m.Driver().OperatingPoints()
	for _, p := range pts {
		fmt.Fprintf(&b, "%-6s %10.3f %12.3f %12.1f\n",
			p.Level, p.Volts, p.SupplyAmps*1e3, m.SymbolEnergy(p.Level))
	}
	fmt.Fprintf(&b, "mean symbol %.1f fJ (%.1f fJ/bit; paper: 1057.5 / 528.8)\n",
		m.MeanSymbolEnergy(), m.PAM4PerBit())
	return b.String()
}

// Fig2DriverTable renders the electrical operating points (Figure 2).
func Fig2DriverTable(d pam4.DriverConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — GDDR6X PAM4 driver network (VDDQ=%.2fV, legs=%d×%gΩ, term=%gΩ)\n",
		d.VDDQ, d.Legs, d.LegOhms, d.TermOhms)
	fmt.Fprintf(&b, "%-6s %8s %12s %12s %10s %12s\n",
		"level", "pd-legs", "pullup(Ω)", "pulldn(Ω)", "volts", "current(mA)")
	for _, p := range d.OperatingPoints() {
		pd := "∞"
		if p.PullDownLegs > 0 {
			pd = fmt.Sprintf("%.1f", p.PullDownOhms)
		}
		fmt.Fprintf(&b, "%-6s %8d %12.1f %12s %10.3f %12.3f\n",
			p.Level, p.PullDownLegs, p.PullUpOhms, pd, p.Volts, p.SupplyAmps*1e3)
	}
	fmt.Fprintf(&b, "level spacing: %.0f mV (paper: 225 mV)\n", d.LevelSpacing()*1e3)
	return b.String()
}

// Table2Config renders the evaluated system configuration (Table II) with
// derived cross-checks: 384 data pins at 19.5 Gbps give the paper's
// 936.2 GB/s (reported as Gbps in the paper's table), and a 32-byte
// sector occupies 8 UIs on a 16-pin channel.
func Table2Config() string {
	const (
		sms          = 82
		busBits      = 384
		pinRateGbps  = 19.5
		channels     = busBits / 16
		dramGB       = 24
		vddq         = 1.35
		sectorsPerCL = 4
	)
	bwGBs := float64(busBits) * pinRateGbps / 8
	t := gddr6x.DefaultTiming()
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — evaluated system (NVIDIA RTX 3090 class)\n")
	fmt.Fprintf(&b, "  compute units:   %d SMs\n", sms)
	fmt.Fprintf(&b, "  last-level cache: 6 MB, %d 32-byte sectors per cacheline\n", sectorsPerCL)
	fmt.Fprintf(&b, "  memory system:   %d-bit bus, %d GB GDDR6X, %d 16-pin channels\n", busBits, dramGB, channels)
	fmt.Fprintf(&b, "  bandwidth:       %.1f GB/s total (%g Gbps/pin; paper: 936.2)\n", bwGBs, pinRateGbps)
	fmt.Fprintf(&b, "  supply:          VDDQ = %.2f V, driver 120/120 Ω, termination 40 Ω\n", vddq)
	fmt.Fprintf(&b, "  timing (clocks): RL=%d WL=%d tCCD=%d/%d tRCD=%d tRP=%d tRAS=%d tREFI=%d tRFC=%d\n",
		t.RL, t.WL, t.TCCD, t.TCCDL, t.TRCD, t.TRP, t.TRAS, t.TREFI, t.TRFC)
	fmt.Fprintf(&b, "  organization:    %d banks in %d groups, %d-sector rows, %d-sector interleave\n",
		t.Banks, t.BankGroups, t.RowSectors, t.ChunkSectors)
	return b.String()
}

// Table1MTA renders the canonical 7-bit→4-symbol MTA table (Table I).
// The paper's exact value assignment is not recoverable from the scan;
// this is the canonical ascending-energy assignment.
func Table1MTA(c *mta.Codec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — MTA 7-bit → 4-symbol table (%s, canonical assignment)\n", c.Variant())
	table := c.Table()
	fmt.Fprintf(&b, "%-10s", "bits[2:0]:")
	for low := 0; low < 8; low++ {
		fmt.Fprintf(&b, " %4b", low)
	}
	b.WriteByte('\n')
	for high := 0; high < 16; high++ {
		fmt.Fprintf(&b, "%07b/hi=%x", high<<3, high)
		for low := 0; low < 8; low++ {
			fmt.Fprintf(&b, " %4s", table[high*8+low])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "expected %.1f fJ/bit steady-state (paper: 574.8)\n", c.ExpectedPerBit())
	return b.String()
}

// Table3CodeSpace renders the constrained code-space sizes (Table III).
func Table3CodeSpace() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — restricted code-space sizes (need 16 for 4-bit inputs)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %16s\n", "symbols", "2-level", "3-level", "4-level(no 3ΔV)")
	for n := 2; n <= 8; n++ {
		c2, err := codec.Count(codec.EnumConstraint{Symbols: n, MaxLevel: pam4.L1, MaxStartLevel: pam4.L1, MaxStep: 2})
		if err != nil {
			return "", err
		}
		c3, err := codec.Count(codec.EnumConstraint{Symbols: n, MaxLevel: pam4.L2, MaxStartLevel: pam4.L2, MaxStep: 2})
		if err != nil {
			return "", err
		}
		c4, err := codec.Count(codec.EnumConstraint{Symbols: n, MaxLevel: pam4.L3, MaxStartLevel: pam4.L2, MaxStep: 2})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8d %12d %12d %16d\n", n, c2, c3, c4)
	}
	return b.String(), nil
}

// table4Row is one Table IV comparison line.
type table4Row struct {
	name    string
	wire    float64 // wire-only fJ/bit
	logic   float64 // codec logic fJ/bit
	postamb float64 // postamble adder fJ/bit
}

func (r table4Row) total() float64 { return r.wire + r.logic + r.postamb }

// table4Rows computes every Table IV row from first principles.
func table4Rows(m *pam4.EnergyModel) ([]table4Row, error) {
	var rows []table4Row
	rows = append(rows,
		table4Row{name: "2b1s PAM4", wire: dbi.NewPAM4Codec(false, m).ExpectedPerBit()},
		table4Row{name: "2b1s PAM4/DBI", wire: dbi.NewPAM4Codec(true, m).ExpectedPerBit()},
	)
	mc := mta.New(m)
	rows = append(rows, table4Row{name: "MTA", wire: mc.ExpectedPerBit()})
	post := 18 * 4 * m.PostambleWireUIEnergy() / 256
	rows = append(rows, table4Row{name: "MTA+postamble", wire: mc.ExpectedPerBit(), postamb: post})

	for _, withDBI := range []bool{false, true} {
		fam, err := core.NewFamily(m, core.FamilyConfig{DBI: withDBI, Levels: 3, PaperFaithful: true})
		if err != nil {
			return nil, err
		}
		for _, n := range []int{3, 4, 6, 8} {
			sc := fam.ByLength(n)
			rows = append(rows, table4Row{
				name:  sc.Name(),
				wire:  sc.ExpectedPerBit(),
				logic: 7, // encoder+decoder logic, §V-A/§V-B
			})
		}
	}
	return rows, nil
}

// Table4Energy renders the per-encoding energy comparison (Table IV).
func Table4Energy(m *pam4.EnergyModel) (string, error) {
	rows, err := table4Rows(m)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — energy of encodings (fJ/bit)\n")
	fmt.Fprintf(&b, "%-14s %10s %8s %10s %10s %8s\n",
		"code", "wire", "logic", "total", "paper", "Δ%")
	for _, r := range rows {
		paper, ok := paperTable4[r.name]
		delta := "--"
		if ok {
			delta = fmt.Sprintf("%+.1f", (r.total()/paper-1)*100)
		}
		fmt.Fprintf(&b, "%-14s %10.1f %8.1f %10.1f %10.1f %8s\n",
			r.name, r.wire+r.postamb, r.logic, r.total(), paper, delta)
	}
	return b.String(), nil
}

// Fig6Survey renders the code-survey curve (Figure 6): fJ/bit versus
// output code length for 2- and 3-level codes with and without DBI, plus
// the PAM4/MTA baselines.
func Fig6Survey(m *pam4.EnergyModel) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — sparse-code survey (wire fJ/bit vs output symbols)\n")
	fmt.Fprintf(&b, "baselines: PAM4 %.1f | PAM4/DBI %.1f | MTA %.1f | MTA+postamble %.1f\n",
		m.PAM4PerBit(), dbi.NewPAM4Codec(true, m).ExpectedPerBit(),
		mta.New(m).ExpectedPerBit(), mta.New(m).ExpectedPerBit()+18*4*m.PostambleWireUIEnergy()/256)
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %12s\n", "symbols", "2-level", "2-level/DBI", "3-level", "3-level/DBI")
	families := map[[2]int]*core.Family{}
	for _, lv := range []int{2, 3} {
		for _, d := range []int{0, 1} {
			fam, err := core.NewFamily(m, core.FamilyConfig{DBI: d == 1, Levels: lv})
			if err != nil {
				return "", err
			}
			families[[2]int{lv, d}] = fam
		}
	}
	cell := func(lv, d, n int) string {
		sc := families[[2]int{lv, d}].ByLength(n)
		if sc == nil {
			return "--"
		}
		return fmt.Sprintf("%.1f", sc.ExpectedPerBit())
	}
	for n := 3; n <= 8; n++ {
		fmt.Fprintf(&b, "%-8d %10s %12s %10s %12s\n",
			n, cell(2, 0, n), cell(2, 1, n), cell(3, 0, n), cell(3, 1, n))
	}
	return b.String(), nil
}

// Fig7Hardware renders encoder area/delay estimates (Figure 7).
func Fig7Hardware(m *pam4.EnergyModel) (string, error) {
	reports, err := hwcost.Fig7Reports(m)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — encoder hardware cost (NAND2 equivalents)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %10s\n", "encoder", "area(NAND2)", "area(µm²)", "delay(NAND2)", "delay(ps)")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-14s %12.0f %12.1f %12.1f %10.0f\n",
			r.Name, r.Cost.AreaNAND2, r.Cost.AreaUM2(), r.Cost.DelayNAND2, r.Cost.DelayPS())
	}
	decoders, err := hwcost.DecoderReports(m)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "decoders (the paper argues these match encoder timing):\n")
	for _, r := range decoders {
		fmt.Fprintf(&b, "%-14s %12.0f %12.1f %12.1f %10.0f\n",
			r.Name, r.Cost.AreaNAND2, r.Cost.AreaUM2(), r.Cost.DelayNAND2, r.Cost.DelayPS())
	}
	return b.String(), nil
}

// SuiteSummary renders per-suite mean normalized energy for each scheme —
// the aggregate view of Figure 8.
func SuiteSummary(baseline FleetResult, schemes []FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-suite mean normalized energy (vs %s)\n%-10s %6s", "baseline", "suite", "apps")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %24s", s.Label)
	}
	b.WriteByte('\n')
	suites := map[string][]int{}
	var order []string
	for i, r := range baseline.Results {
		if _, seen := suites[r.App.Suite]; !seen {
			order = append(order, r.App.Suite)
		}
		suites[r.App.Suite] = append(suites[r.App.Suite], i)
	}
	for _, suite := range order {
		idx := suites[suite]
		fmt.Fprintf(&b, "%-10s %6d", suite, len(idx))
		for _, s := range schemes {
			var ratios []float64
			for _, i := range idx {
				ratios = append(ratios, s.Results[i].PerBit/baseline.Results[i].PerBit)
			}
			fmt.Fprintf(&b, " %24.3f", stats.Geomean(ratios))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DBIAblation renders the §V-A ablation: encoder area and delay saved by
// dropping the DBI stage (the paper quotes 42% at 4b3s up to 86% at 4b8s,
// with delay cut by more than half).
func DBIAblation(m *pam4.EnergyModel) string {
	reports, err := hwcost.Fig7Reports(m)
	if err != nil {
		return "DBI ablation unavailable: " + err.Error()
	}
	byName := map[string]hwcost.Cost{}
	for _, r := range reports {
		byName[r.Name] = r.Cost
	}
	var b strings.Builder
	fmt.Fprintf(&b, "DBI-removal ablation (paper: 42%%→86%% area, delay cut >2×)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "code", "area saved", "delay saved")
	for _, n := range []int{3, 4, 6, 8} {
		name := fmt.Sprintf("4b%ds-3", n)
		with, without := byName[name+"/DBI"], byName[name]
		if floats.Eq(with.AreaNAND2, 0) {
			continue
		}
		fmt.Fprintf(&b, "%-8s %11.0f%% %11.0f%%\n", name,
			(1-without.AreaNAND2/with.AreaNAND2)*100,
			(1-without.DelayNAND2/with.DelayNAND2)*100)
	}
	return b.String()
}

// Fig5Gaps renders the idle-gap distributions (Figure 5) from a baseline
// fleet run.
func Fig5Gaps(base FleetResult) string {
	var b strings.Builder
	render := func(title string, h stats.Histogram, paper0, paper1 float64) {
		fmt.Fprintf(&b, "%s (paper: gap0 %.1f%%, gap1 %.1f%%, >16 6.9%%)\n", title, paper0*100, paper1*100)
		fmt.Fprintf(&b, "  gap0 %.1f%% | gap1 %.1f%% | gap2 %.1f%% | gap3-16 %.1f%% | >16 %.1f%%\n",
			h.Fraction(0)*100, h.Fraction(1)*100, h.Fraction(2)*100,
			(h.TailFraction(3)-h.OverflowFraction())*100, h.OverflowFraction()*100)
	}
	render("Figure 5a — idle cycles after READs", base.AggregateGaps(true), 0.592, 0.291)
	render("Figure 5b — idle cycles after WRITEs", base.AggregateGaps(false), 0.591, 0.302)
	b.WriteString("per-app read gap-0 / gap-1 / >16 fractions:\n")
	for _, r := range base.Results {
		h := r.ReadGaps
		fmt.Fprintf(&b, "  %-16s %-10s %5.1f%% %5.1f%% %5.1f%%\n",
			r.App.Name, r.App.Suite, h.Fraction(0)*100, h.Fraction(1)*100, h.OverflowFraction()*100)
	}
	return b.String()
}

// Fig8Energy renders per-app energies normalized to a baseline fleet run
// (Figure 8a uses the MTA+postamble baseline, 8b the optimized MTA
// baseline). Apps are sorted by suite then ascending idle frequency, as
// in the paper.
func Fig8Energy(baseline FleetResult, schemes []FleetResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-16s %-10s %8s", title, "app", "suite", "idlefreq")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteByte('\n')

	order := make([]int, len(baseline.Results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		ra, rc := baseline.Results[order[a]], baseline.Results[order[c]]
		if ra.App.Suite != rc.App.Suite {
			return ra.App.Suite < rc.App.Suite
		}
		return ra.IdleFrequency < rc.IdleFrequency
	})
	for _, i := range order {
		base := baseline.Results[i]
		fmt.Fprintf(&b, "%-16s %-10s %8.2f", base.App.Name, base.App.Suite, base.IdleFrequency)
		for _, s := range schemes {
			fmt.Fprintf(&b, " %22.3f", s.Results[i].PerBit/base.PerBit)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s %-10s %8s", "MEAN", "", "")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %22.3f", s.MeanPerBit()/baseline.MeanPerBit())
	}
	b.WriteByte('\n')
	return b.String()
}

// Table5 renders the scheme-comparison savings (Table V).
func Table5(baseline FleetResult, variable, static, conservative FleetResult) string {
	var b strings.Builder
	base := baseline.MeanPerBit()
	fmt.Fprintf(&b, "Table V — energy saving vs baseline MTA+postamble (%.1f fJ/bit)\n", base)
	fmt.Fprintf(&b, "%-14s %-24s %10s %10s\n", "gap detection", "code specification", "saving", "paper")
	row := func(det, spec string, fr FleetResult, paper float64) {
		fmt.Fprintf(&b, "%-14s %-24s %9.1f%% %9.1f%%\n",
			det, spec, (1-fr.MeanPerBit()/base)*100, paper*100)
	}
	row("exhaustive", "variable (4b{3:8}s-3)", variable, PaperVariableSaving)
	row("exhaustive", "static (4b3s-3)", static, PaperStaticSaving)
	row("conservative(8)", "static (4b3s-3)", conservative, PaperConservSaving)
	return b.String()
}

// PerfTable renders the performance impact of each scheme relative to the
// baseline (the paper reports 0.024% average degradation).
func PerfTable(baseline FleetResult, schemes []FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Performance impact (execution clocks vs baseline; paper: 0.024%% avg, 0.15%% max)\n")
	for _, s := range schemes {
		var ratios []float64
		worst := 0.0
		for i := range s.Results {
			r := float64(s.Results[i].Clocks)/float64(baseline.Results[i].Clocks) - 1
			ratios = append(ratios, r)
			if r > worst {
				worst = r
			}
		}
		fmt.Fprintf(&b, "  %-28s mean %+0.4f%%  worst %+0.4f%%\n",
			s.Label, stats.Mean(ratios)*100, worst*100)
	}
	return b.String()
}

// TotalPowerContext renders the §V-B total-DRAM-power contextualization:
// transfer energy is ≈10% of the 7.25 pJ/bit DRAM total, so the I/O
// saving is ≈2.5% of total DRAM power.
func TotalPowerContext(baseline, best FleetResult) string {
	var b strings.Builder
	base := baseline.MeanPerBit()
	saving := base - best.MeanPerBit()
	share := base / (PaperDRAMTotalPJPerBit * 1000)
	total := saving / (PaperDRAMTotalPJPerBit * 1000)
	fmt.Fprintf(&b, "Total-power context (§V-B)\n")
	fmt.Fprintf(&b, "  baseline transfer energy: %.1f fJ/bit (paper: 706.9 + 10 logic)\n", base)
	fmt.Fprintf(&b, "  transfer share of %.2f pJ/bit DRAM total: %.1f%% (paper: ≈10%%)\n",
		PaperDRAMTotalPJPerBit, share*100)
	fmt.Fprintf(&b, "  SMOREs saving of total DRAM power: %.1f%% (paper: ≈2.5%%)\n", total*100)
	return b.String()
}
