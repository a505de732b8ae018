package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"smores/internal/pam4"
	"smores/internal/stats"
)

// Machine-readable exports of the evaluation, for plotting the paper's
// figures with external tooling.

// ExportFleetCSV writes one row per application with the headline
// statistics of a fleet run.
func ExportFleetCSV(w io.Writer, fr FleetResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"app", "suite", "policy", "perbit_fj", "idle_frequency",
		"reads", "writes", "clocks", "avg_read_latency",
		"gap0_frac", "gap1_frac", "gap_gt16_frac",
		"mta_bursts", "sparse_bursts", "postambles",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range fr.Results {
		row := []string{
			r.App.Name, r.App.Suite, r.Label,
			f(r.PerBit), f(r.IdleFrequency),
			strconv.FormatInt(r.Reads, 10), strconv.FormatInt(r.Writes, 10),
			strconv.FormatInt(r.Clocks, 10), f(r.AvgReadLatency),
			f(r.ReadGaps.Fraction(0)), f(r.ReadGaps.Fraction(1)), f(r.ReadGaps.OverflowFraction()),
			strconv.FormatInt(r.Bus.MTABursts, 10), strconv.FormatInt(r.Bus.SparseBursts, 10),
			strconv.FormatInt(r.Bus.Postambles, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportGapsCSV writes the aggregate gap histogram (Figure 5) as
// (gap, read_fraction, write_fraction) rows, with the overflow tail
// (">16") as the final row.
func ExportGapsCSV(w io.Writer, fr FleetResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"gap_clocks", "read_fraction", "write_fraction"}); err != nil {
		return err
	}
	reads, writes := fr.AggregateGaps(true), fr.AggregateGaps(false)
	for g := 0; g < stats.Buckets; g++ {
		if err := cw.Write([]string{
			strconv.Itoa(g), f(reads.Fraction(g)), f(writes.Fraction(g)),
		}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{">" + strconv.Itoa(stats.Buckets-1),
		f(reads.OverflowFraction()), f(writes.OverflowFraction())}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Table4JSON is the machine-readable Table IV.
type Table4JSON struct {
	Name       string  `json:"name"`
	WirePerBit float64 `json:"wire_fj_per_bit"`
	Logic      float64 `json:"logic_fj_per_bit"`
	Total      float64 `json:"total_fj_per_bit"`
	Paper      float64 `json:"paper_fj_per_bit,omitempty"`
}

// ExportTable4JSON writes Table IV as JSON.
func ExportTable4JSON(w io.Writer, m *pam4.EnergyModel) error {
	rows, err := table4Rows(m)
	if err != nil {
		return err
	}
	out := make([]Table4JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, Table4JSON{
			Name:       r.name,
			WirePerBit: r.wire + r.postamb,
			Logic:      r.logic,
			Total:      r.total(),
			Paper:      paperTable4[r.name],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// EvalAppJSON is one application row in the machine-readable evaluation.
type EvalAppJSON struct {
	App            string  `json:"app"`
	Suite          string  `json:"suite"`
	PerBitFJ       float64 `json:"perbit_fj"`
	IdleFrequency  float64 `json:"idle_frequency"`
	Reads          int64   `json:"reads"`
	Writes         int64   `json:"writes"`
	Clocks         int64   `json:"clocks"`
	AvgReadLatency float64 `json:"avg_read_latency"`
	MTABursts      int64   `json:"mta_bursts"`
	SparseBursts   int64   `json:"sparse_bursts"`
	Postambles     int64   `json:"postambles"`
	// Balance is the max/min per-channel bit ratio, present above one
	// channel. It is also omitted when not finite (an idle channel next
	// to a busy one → +Inf): encoding/json cannot represent it, and a
	// sentinel number would smuggle the ambiguity the sentinel exists to
	// remove.
	Balance *float64 `json:"balance,omitempty"`
	// PerChannelBits is each channel's transferred data bits, in channel
	// order — the striping-skew evidence behind Balance. Present above
	// one channel.
	PerChannelBits []float64 `json:"per_channel_bits,omitempty"`
}

// EvalFleetJSON is one fleet (policy × scheme) in the evaluation.
type EvalFleetJSON struct {
	Label        string        `json:"label"`
	MeanPerBitFJ float64       `json:"mean_perbit_fj"`
	Apps         []EvalAppJSON `json:"apps"`
}

// EvalJSON is the machine-readable smores-eval output at any channel
// count. It holds no timestamps, host or scheduling data, so a fixed
// seed yields byte-identical bytes at every worker count (cmd/smoke
// pins this).
type EvalJSON struct {
	Channels int             `json:"channels"`
	Accesses int64           `json:"accesses"`
	Seed     uint64          `json:"seed"`
	Fleets   []EvalFleetJSON `json:"fleets"`
}

// ExportEvalJSON writes the full evaluation — every fleet's per-app
// results — as indented JSON.
func ExportEvalJSON(w io.Writer, frs []FleetResult) error {
	var out EvalJSON
	if len(frs) > 0 {
		out.Channels = frs[0].Channels
		out.Accesses = frs[0].Spec.Accesses
		out.Seed = frs[0].Spec.Seed
	}
	for _, fr := range frs {
		fj := EvalFleetJSON{Label: fr.Label, MeanPerBitFJ: fr.MeanPerBit()}
		for _, r := range fr.Results {
			row := EvalAppJSON{
				App: r.App.Name, Suite: r.App.Suite,
				PerBitFJ: r.PerBit, IdleFrequency: r.IdleFrequency,
				Reads: r.Reads, Writes: r.Writes, Clocks: r.Clocks,
				AvgReadLatency: r.AvgReadLatency,
				MTABursts:      r.Bus.MTABursts, SparseBursts: r.Bus.SparseBursts,
				Postambles: r.Bus.Postambles,
			}
			if bal := r.ChannelBalance(); !math.IsNaN(bal) && !math.IsInf(bal, 0) {
				row.Balance = &bal
			}
			for _, st := range r.PerChannel {
				row.PerChannelBits = append(row.PerChannelBits, st.DataBits)
			}
			fj.Apps = append(fj.Apps, row)
		}
		out.Fleets = append(out.Fleets, fj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
