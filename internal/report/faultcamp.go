package report

// Monte Carlo link-reliability campaigns: sweep error rate × scheme ×
// error model × EDC layer over real workloads, and report each layer's
// detection coverage, the silent-corruption rate, and what EDC replay
// costs in clocks and energy. Every point's layered accounting must
// partition its corrupted bursts exactly (fault.Stats.Conserves); the
// runner fails the whole campaign otherwise, so a campaign that returns
// is also a conservation proof.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/memctrl"
	"smores/internal/shard"
	"smores/internal/workload"
)

// CampaignScheme is one encoding coordinate of the sweep.
type CampaignScheme struct {
	Policy memctrl.EncodingPolicy
	Scheme core.Scheme
}

// CampaignSpec configures a reliability campaign. The cross product
// Schemes × Models × Rates × EDC defines the points; every point runs
// the same Apps with seeds derived only from (Seed, point, app) so the
// sweep is reproducible regardless of worker count.
type CampaignSpec struct {
	// Schemes are the encoding coordinates (default: MTA baseline plus
	// the paper's exhaustive variable-code SMOREs point).
	Schemes []CampaignScheme
	// Models are the error processes (default: uniform).
	Models []fault.Model
	// Rates are the target symbol error rates (default: 1e-4, 1e-3, 1e-2).
	Rates []float64
	// EDC selects the CRC-8 layer settings to sweep (default: off, on).
	EDC []bool
	// Apps is the workload subset (default: a fixed 4-app sample across
	// suites — campaigns multiply fast).
	Apps []workload.Profile
	// Accesses is the per-app run length (default 8000).
	Accesses int64
	// Seed drives both traffic and error processes.
	Seed uint64
	// Replay tunes the controller's EDC retransmission machinery.
	Replay memctrl.ReplayConfig
	// BurstLen is the bursty model's mean error-burst length in symbol
	// columns (0 keeps the model default).
	BurstLen float64
	// Workers bounds concurrent simulations (0 = GOMAXPROCS). Results
	// are placement-deterministic regardless.
	Workers int
}

// withDefaults fills zero fields.
func (s CampaignSpec) withDefaults() CampaignSpec {
	if len(s.Schemes) == 0 {
		s.Schemes = []CampaignScheme{
			{Policy: memctrl.BaselineMTA},
			{Policy: memctrl.SMOREs, Scheme: core.Scheme{
				Specification: core.VariableCode, Detection: core.Exhaustive}},
		}
	}
	if len(s.Models) == 0 {
		s.Models = []fault.Model{fault.ModelUniform}
	}
	if len(s.Rates) == 0 {
		s.Rates = []float64{1e-4, 1e-3, 1e-2}
	}
	if len(s.EDC) == 0 {
		s.EDC = []bool{false, true}
	}
	if len(s.Apps) == 0 {
		fleet := workload.Fleet()
		for _, i := range []int{0, len(fleet) / 3, 2 * len(fleet) / 3, len(fleet) - 1} {
			s.Apps = append(s.Apps, fleet[i])
		}
	}
	if s.Accesses == 0 {
		s.Accesses = 8000
	}
	return s
}

// PointResult is one campaign coordinate's aggregate outcome across the
// campaign's applications.
type PointResult struct {
	// Coordinate.
	Label string      `json:"label"` // controller description (policy/scheme)
	Model fault.Model `json:"-"`
	Rate  float64     `json:"rate"`
	EDC   bool        `json:"edc"`
	// ModelName serializes Model.
	ModelName string `json:"model"`

	// Fault is the layered detection accounting summed over apps; it
	// conserves (enforced).
	Fault fault.Stats `json:"fault"`

	// Replay cost aggregates.
	Replays        int64 `json:"replays"`
	ReplayClocks   int64 `json:"replay_clocks"`
	ReplayFailures int64 `json:"replay_failures"`
	DegradedBursts int64 `json:"degraded_bursts"`
	Clocks         int64 `json:"clocks"`

	// PerBit is total fJ per data bit including replay energy;
	// ReplayPerBit is the replay share alone.
	PerBit       float64 `json:"perbit_fj"`
	ReplayPerBit float64 `json:"replay_perbit_fj"`
}

// DetectionRate is the fraction of corrupted bursts any layer caught.
func (p PointResult) DetectionRate() float64 { return p.Fault.DetectionRate() }

// ReplayClockFrac is the fraction of simulated clocks spent on replay
// traffic.
func (p PointResult) ReplayClockFrac() float64 {
	if p.Clocks == 0 {
		return 0
	}
	return float64(p.ReplayClocks) / float64(p.Clocks)
}

// CampaignResult is the full sweep outcome, points in deterministic
// enumeration order (scheme-major, then model, rate, EDC).
type CampaignResult struct {
	Spec   CampaignSpec
	Points []PointResult
}

// campaignJob is one (point, app) simulation.
type campaignJob struct {
	point, app int
	spec       RunSpec
}

// RunCampaign executes the sweep with a bounded worker pool over
// (point, app) jobs. Same spec ⇒ identical result, independent of
// worker count and completion order.
func RunCampaign(spec CampaignSpec) (CampaignResult, error) {
	spec = spec.withDefaults()
	cr := CampaignResult{Spec: spec}

	// Enumerate points and jobs deterministically.
	type coord struct {
		scheme CampaignScheme
		model  fault.Model
		rate   float64
		edc    bool
	}
	var coords []coord
	for _, sc := range spec.Schemes {
		for _, m := range spec.Models {
			for _, r := range spec.Rates {
				for _, e := range spec.EDC {
					coords = append(coords, coord{sc, m, r, e})
				}
			}
		}
	}
	var jobs []campaignJob
	for pi, co := range coords {
		for ai := range spec.Apps {
			fc := fault.Config{
				Model:    co.model,
				Rate:     co.rate,
				EDC:      co.edc,
				BurstLen: spec.BurstLen,
				// Seed depends only on (campaign seed, point, app).
				Seed: campaignJobSeed(spec.Seed, pi, ai),
			}
			jobs = append(jobs, campaignJob{point: pi, app: ai, spec: RunSpec{
				Policy:   co.scheme.Policy,
				Scheme:   co.scheme.Scheme,
				Accesses: spec.Accesses,
				Seed:     appSeed(spec.Seed, ai),
				UseLLC:   true,
				Fault:    &fc,
				Replay:   spec.Replay,
			}})
		}
	}

	// Run the jobs.
	results := make([]AppResult, len(jobs))
	err := shard.RunJobs(len(jobs), spec.Workers, func(_, j int) error {
		job := jobs[j]
		var err error
		results[j], err = RunApp(spec.Apps[job.app], job.spec)
		if err != nil {
			return fmt.Errorf("report: campaign point %d app %s: %w", job.point, spec.Apps[job.app].Name, err)
		}
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}

	// Aggregate per point.
	cr.Points = make([]PointResult, len(coords))
	energy := make([]float64, len(coords))
	replayE := make([]float64, len(coords))
	bits := make([]float64, len(coords))
	for j, job := range jobs {
		r := results[j]
		p := &cr.Points[job.point]
		p.Fault.Add(r.Fault)
		p.Replays += r.Ctrl.Replays
		p.ReplayClocks += r.Ctrl.ReplayClocks
		p.ReplayFailures += r.Ctrl.ReplayFailures
		p.DegradedBursts += r.Ctrl.DegradedBursts
		p.Clocks += r.Clocks
		p.Label = r.Label
		energy[job.point] += r.Bus.TotalEnergy()
		replayE[job.point] += r.Bus.ReplayEnergy
		bits[job.point] += r.Bus.DataBits
	}
	for pi := range cr.Points {
		p := &cr.Points[pi]
		p.Model = coords[pi].model
		p.ModelName = coords[pi].model.String()
		p.Rate = coords[pi].rate
		p.EDC = coords[pi].edc
		if bits[pi] > 0 {
			p.PerBit = energy[pi] / bits[pi]
			p.ReplayPerBit = replayE[pi] / bits[pi]
		}
		// The per-app conservation check already ran inside RunApp; the
		// sums must conserve too (Add preserves the partition).
		if !p.Fault.Conserves() {
			return CampaignResult{}, fmt.Errorf("report: campaign point %d (%s %s rate=%g edc=%v): aggregate detection accounting does not conserve: %v",
				pi, p.Label, p.ModelName, p.Rate, p.EDC, p.Fault)
		}
		// Replays the controller booked must all have crossed the wire.
		if p.Fault.ReplayBursts != p.Replays {
			return CampaignResult{}, fmt.Errorf("report: campaign point %d: injector saw %d replay bursts, controllers booked %d",
				pi, p.Fault.ReplayBursts, p.Replays)
		}
	}
	return cr, nil
}

// RenderCampaign formats the sweep as a coverage/cost table.
func RenderCampaign(cr CampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Link-reliability campaign — %d points × %d apps, %d accesses/app, seed %d\n",
		len(cr.Points), len(cr.Spec.Apps), cr.Spec.Accesses, cr.Spec.Seed)
	fmt.Fprintf(&b, "detection shares are of corrupted bursts; replay cost is of total clocks / total fJ·bit⁻¹\n\n")
	fmt.Fprintf(&b, "%-28s %-8s %8s %4s | %9s %8s %8s %8s %7s | %8s %9s %9s\n",
		"scheme", "model", "rate", "edc",
		"corrupted", "legality", "codebook", "edc", "silent",
		"replays", "clk-ovh", "fJ/bit")
	for _, p := range cr.Points {
		edc := "off"
		if p.EDC {
			edc = "on"
		}
		fmt.Fprintf(&b, "%-28s %-8s %8.0e %4s | %9d %7.1f%% %7.1f%% %7.1f%% %6.2f%% | %8d %8.3f%% %9.2f\n",
			p.Label, p.ModelName, p.Rate, edc,
			p.Fault.CorruptedBursts,
			100*p.Fault.LayerShare(p.Fault.CaughtLegality),
			100*p.Fault.LayerShare(p.Fault.CaughtCodebook),
			100*p.Fault.LayerShare(p.Fault.CaughtEDC),
			100*p.Fault.SilentRate(),
			p.Replays, 100*p.ReplayClockFrac(), p.PerBit)
	}
	return b.String()
}

// CampaignJSON is the machine-readable campaign export. It contains no
// timestamps or host data: the same spec yields byte-identical output.
type CampaignJSON struct {
	Accesses int64         `json:"accesses"`
	Seed     uint64        `json:"seed"`
	Apps     []string      `json:"apps"`
	Points   []PointResult `json:"points"`
}

// ExportCampaignJSON writes the campaign as indented JSON.
func ExportCampaignJSON(w io.Writer, cr CampaignResult) error {
	out := CampaignJSON{
		Accesses: cr.Spec.Accesses,
		Seed:     cr.Spec.Seed,
		Points:   cr.Points,
	}
	for _, a := range cr.Spec.Apps {
		out.Apps = append(out.Apps, a.Name)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
