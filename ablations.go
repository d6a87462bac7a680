package beacon

import (
	"context"
	"fmt"
	"strings"

	"beacon/internal/core"
	"beacon/internal/report"
	"beacon/internal/runner"
)

// This file contains ablation studies beyond the paper's figures: sweeps
// over the design choices DESIGN.md calls out (multi-chip coalescing group
// size, CXLG-DIMM population, CXL link bandwidth, task-scheduler queue
// depth, pool scale). They answer "why these parameters" questions a reader
// of the paper is left with, using the same workloads and machines as the
// main figures.
//
// Like the figures, each sweep enumerates its configurations as ordinary
// evaluator jobs (simJob, so they are observed and fault-injected like any
// other) on the worker pool and merges points by sweep order, so the
// rendered tables are identical at any -jobs setting. A point differs from
// a figure job only by the machine tweak its run option carries. Every
// point replays the same cached, read-only workload trace on its own
// machine.

// AblationPoint is one configuration of a sweep.
type AblationPoint struct {
	// Label names the swept value.
	Label string
	// Cycles is the makespan.
	Cycles int64
	// Speedup is relative to the sweep's first point.
	Speedup float64
	// Extra carries a sweep-specific secondary metric (documented per
	// ablation function).
	Extra float64
}

// AblationResult is a completed sweep.
type AblationResult struct {
	Title     string
	ExtraName string
	Points    []AblationPoint
}

// String renders the sweep.
func (a *AblationResult) String() string {
	t := report.NewTable(a.Title, "config", "cycles", "speedup", a.ExtraName)
	for _, p := range a.Points {
		t.AddRow(p.Label, fmt.Sprintf("%d", p.Cycles),
			report.FormatRatio(p.Speedup), fmt.Sprintf("%.3f", p.Extra))
	}
	return t.String()
}

func (a *AblationResult) finish() {
	if len(a.Points) == 0 {
		return
	}
	base := float64(a.Points[0].Cycles)
	for i := range a.Points {
		a.Points[i].Speedup = base / float64(a.Points[i].Cycles)
	}
}

// sweep runs one ablation's jobs on the evaluator's pool and fills in the
// cycles of out's points, whose labels the caller has set in job order.
// extra derives point i's secondary metric from its result.
func (e *Evaluator) sweep(ctx context.Context, out *AblationResult,
	jobs []runner.Job[*RunResult], extra func(i int, res *RunResult) float64) (*AblationResult, error) {
	results, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		out.Points[i].Cycles = res.Report.Cycles
		out.Points[i].Extra = extra(i, res)
	}
	out.finish()
	return out, nil
}

// fmPoint adds a point labelled label to out and returns its job: FM-index
// seeding of Pinus taeda, the workload every single-application sweep
// replays, on kind's final FM-seeding ladder step with tune setting the
// swept knob.
func (e *Evaluator) fmPoint(out *AblationResult, kind PlatformKind, label string, tune func(*core.Config)) runner.Job[*RunResult] {
	out.Points = append(out.Points, AblationPoint{Label: label})
	p := Platform{Kind: kind, Opts: finalOptions(FMSeeding, kind)}
	return e.simJob(FMSeeding, PinusTaeda, MultiPass, p, label, withMachineTweak(tune))
}

// AblationCoalesceGroup sweeps the multi-chip coalescing group size on
// BEACON-D FM-index seeding (the knob §IV-D says is "fine-tuned to achieve
// the best performance"). Extra is the DRAM overfetch ratio
// (transferred/useful bytes): group 16 (lock-step) wastes bandwidth on a
// 32 B access, group 1 (per-chip) unbalances chips; 8 is the sweet spot for
// 32 B objects on x4 chips.
func (e *Evaluator) AblationCoalesceGroup(ctx context.Context) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation — multi-chip coalescing group size (BEACON-D, FM seeding)", ExtraName: "overfetch"}
	var jobs []runner.Job[*RunResult]
	for _, g := range []int{1, 2, 4, 8, 16} {
		jobs = append(jobs, e.fmPoint(out, BeaconD, fmt.Sprintf("group=%d", g),
			func(c *core.Config) { c.CoalesceGroup = g }))
	}
	return e.sweep(ctx, out, jobs, func(_ int, res *RunResult) float64 {
		dram := res.machine.DRAM
		if dram.UsefulBytes == 0 {
			return 1.0
		}
		return float64(dram.TransferredBytes) / float64(dram.UsefulBytes)
	})
}

// AblationCXLGPerSwitch sweeps the number of enhanced CXLG-DIMMs per switch
// on BEACON-D FM seeding — the cost/performance dial between BEACON-S
// (zero customized DIMMs) and a fully customized pool. Extra is the local
// access fraction.
func (e *Evaluator) AblationCXLGPerSwitch(ctx context.Context) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation — CXLG-DIMMs per switch (BEACON-D, FM seeding)", ExtraName: "local-frac"}
	var jobs []runner.Job[*RunResult]
	for _, n := range []int{1, 2, 3, 4} {
		jobs = append(jobs, e.fmPoint(out, BeaconD, fmt.Sprintf("cxlg=%d", n),
			func(c *core.Config) { c.CXLGPerSwitch = n }))
	}
	return e.sweep(ctx, out, jobs, func(_ int, res *RunResult) float64 { return res.Report.LocalFraction })
}

// AblationLinkBandwidth sweeps the per-DIMM CXL link bandwidth on BEACON-S
// FM seeding (x4 through x32 PCIe 5.0 equivalents). Extra is the
// communication share of energy. BEACON-S routes every access over these
// links, so this is its most sensitive parameter.
func (e *Evaluator) AblationLinkBandwidth(ctx context.Context) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation — per-DIMM CXL link bandwidth (BEACON-S, FM seeding)", ExtraName: "comm-energy"}
	var jobs []runner.Job[*RunResult]
	for _, bpc := range []float64{10, 20, 40, 80, 160} {
		jobs = append(jobs, e.fmPoint(out, BeaconS, fmt.Sprintf("x%d (%.1f GB/s)", int(bpc/10), bpc*0.8),
			func(c *core.Config) { c.Fabric.DIMMLink.BytesPerCycle = bpc }))
	}
	return e.sweep(ctx, out, jobs, func(_ int, res *RunResult) float64 { return res.Report.CommEnergyRatio() })
}

// AblationInFlight sweeps the Task Scheduler queue depth on BEACON-S FM
// seeding. The scheduler must keep enough tasks in flight to cover the
// fabric's bandwidth-delay product; the sweep shows throughput saturating
// once the queue is deep enough. Extra is tasks-in-flight per PE.
func (e *Evaluator) AblationInFlight(ctx context.Context) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation — task scheduler queue depth (BEACON-S, FM seeding)", ExtraName: "tasks/PE"}
	depths := []int{64, 256, 1024, 4096}
	var jobs []runner.Job[*RunResult]
	for _, inflight := range depths {
		jobs = append(jobs, e.fmPoint(out, BeaconS, fmt.Sprintf("inflight=%d", inflight),
			func(c *core.Config) { c.InFlightPerNode = inflight }))
	}
	pes := Platform{Kind: BeaconS}.coreConfig().PEsPerNode
	return e.sweep(ctx, out, jobs, func(i int, _ *RunResult) float64 {
		return float64(depths[i]) / float64(pes)
	})
}

// AblationPoolScale sweeps the pool size (switch count) on BEACON-D FM
// seeding with the workload held constant — the scalability claim behind
// "the memory pool ... can scale-out far beyond this". Extra is the number
// of compute nodes.
func (e *Evaluator) AblationPoolScale(ctx context.Context) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation — pool scale-out (BEACON-D, FM seeding, fixed workload)", ExtraName: "nodes"}
	counts := []int{1, 2, 4, 8}
	var jobs []runner.Job[*RunResult]
	for _, switches := range counts {
		jobs = append(jobs, e.fmPoint(out, BeaconD, fmt.Sprintf("switches=%d", switches),
			func(c *core.Config) { c.Switches = switches }))
	}
	perSwitch := Platform{Kind: BeaconD}.coreConfig().CXLGPerSwitch
	return e.sweep(ctx, out, jobs, func(i int, _ *RunResult) float64 {
		return float64(counts[i] * perSwitch)
	})
}

// AblationRowPolicy compares open-page and closed-page row policies on
// BEACON-D for a locality-rich workload (hash seeding, spatial candidate
// lists) and a random fine-grained one (FM seeding). Extra is the row-hit
// fraction.
func (e *Evaluator) AblationRowPolicy(ctx context.Context) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation — row-buffer policy (BEACON-D)", ExtraName: "row-hit-frac"}
	var jobs []runner.Job[*RunResult]
	for _, app := range []Application{FMSeeding, HashSeeding} {
		for _, closed := range []bool{false, true} {
			policy := "open-page"
			if closed {
				policy = "closed-page"
			}
			out.Points = append(out.Points, AblationPoint{Label: fmt.Sprintf("%s/%s", app, policy)})
			jobs = append(jobs, e.simJob(app, PinusTaeda, MultiPass, Platform{Kind: BeaconD, Opts: AllOptimizations()}, policy,
				withMachineTweak(func(c *core.Config) { c.DIMM.ClosedPage = closed })))
		}
	}
	return e.sweep(ctx, out, jobs, func(_ int, res *RunResult) float64 {
		dram := res.machine.DRAM
		if total := dram.RowHits + dram.RowMisses + dram.RowConflicts; total > 0 {
			return float64(dram.RowHits) / float64(total)
		}
		return 0
	})
}

// AllAblations runs every sweep and renders them. The sweeps run as
// concurrent coordinators over the evaluator's shared pool; the output
// concatenates them in a fixed order.
func (e *Evaluator) AllAblations(ctx context.Context) (string, error) {
	fns := []func(context.Context) (*AblationResult, error){
		e.AblationCoalesceGroup,
		e.AblationCXLGPerSwitch,
		e.AblationLinkBandwidth,
		e.AblationInFlight,
		e.AblationPoolScale,
		e.AblationRowPolicy,
	}
	jobs := make([]runner.Job[*AblationResult], len(fns))
	for i, fn := range fns {
		fn := fn
		jobs[i] = runner.Job[*AblationResult]{
			Label: fmt.Sprintf("ablation %d", i),
			Fn:    func(ctx context.Context) (*AblationResult, error) { return fn(ctx) },
		}
	}
	results, err := runner.Run(ctx, nil, jobs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, res := range results {
		b.WriteString(res.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
