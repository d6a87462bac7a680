package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"beacon"
	"beacon/internal/obs"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// minPasses is the fewest timed replay passes a run makes, so that each
// replay's best time is the fastest of at least three.
const minPasses = 3

var replayPlatforms = []beacon.PlatformKind{beacon.DDRBaseline, beacon.BeaconD, beacon.BeaconS}

var seedingApps = []beacon.Application{beacon.FMSeeding, beacon.HashSeeding, beacon.PreAlignment}

// setSpec is one workload of the replay set.
type setSpec struct {
	app beacon.Application
	cfg beacon.WorkloadConfig
}

// replaySet lists the 16 workloads the evaluation builds at scale rc:
// k-mer counting on Hs, then FM seeding, hash seeding and pre-alignment on
// each seeding species. Hash seeding reads twice as many reads, as the
// evaluation does.
func replaySet(rc beacon.RunConfig) []setSpec {
	cfg := func(sp beacon.Species) beacon.WorkloadConfig {
		c := beacon.DefaultWorkloadConfig(sp)
		c.GenomeScale, c.Reads, c.Seed = rc.GenomeScale, rc.Reads, rc.Seed
		return c
	}
	out := []setSpec{{beacon.KmerCounting, cfg(beacon.Human)}}
	for _, sp := range beacon.AllSeedingSpecies() {
		for _, app := range seedingApps {
			c := cfg(sp)
			if app == beacon.HashSeeding {
				c.Reads *= 2
			}
			out = append(out, setSpec{app, c})
		}
	}
	return out
}

// buildSet builds every workload of the set and checks each verified.
func buildSet(e *env, specs []setSpec, parent int) ([]*beacon.Workload, error) {
	ws := make([]*beacon.Workload, len(specs))
	for i, s := range specs {
		id := e.tr.begin("build/"+s.app.String(), parent)
		wl, err := beacon.NewWorkload(s.app, s.cfg)
		e.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("build %s/%s: %w", s.app, s.cfg.Species, err)
		}
		e.checks.check(wl.Verified, "workload %s failed its functional check", wl.Name)
		ws[i] = wl
	}
	return ws, nil
}

// replayJob is one replay of one workload on one platform.
type replayJob struct {
	label string
	kind  string
	wl    *beacon.Workload
	p     beacon.Platform
}

func replayJobs(ws []*beacon.Workload) []replayJob {
	var jobs []replayJob
	for _, wl := range ws {
		for _, k := range replayPlatforms {
			jobs = append(jobs, replayJob{
				label: wl.Name + "/" + k.String(),
				kind:  k.String(),
				wl:    wl,
				p:     beacon.Platform{Kind: k, Opts: beacon.AllOptimizations()},
			})
		}
	}
	return jobs
}

// simCost accumulates host cost of the replays on one platform kind.
type simCost struct{ secs, allocs, bytes float64 }

// replayer replays a job list serially and checks every report against
// the first pass.
type replayer struct {
	e    *env
	jobs []replayJob
	ref  []*beacon.Report
	cost map[string]*simCost // filled on traced runs
}

func newReplayer(e *env, jobs []replayJob) *replayer {
	r := &replayer{e: e, jobs: jobs}
	r.resetCost()
	return r
}

// resetCost forgets the host cost of the passes so far.
func (r *replayer) resetCost() {
	r.cost = map[string]*simCost{}
	for _, k := range replayPlatforms {
		r.cost[k.String()] = &simCost{}
	}
}

// pass replays every job once and returns each job's wall time in seconds
// rescaled to the nominal host (host.go): it reads the host's speed
// between jobs and rescales every job by the median reading. A median of
// many readings, not the one next to a job, so that one disturbed reading
// cannot make a job look fast.
func (r *replayer) pass(parent int) ([]float64, error) {
	e := r.e
	walls := make([]float64, len(r.jobs))
	speeds := []float64{e.ref.speed()}
	for i, j := range r.jobs {
		var a rtSample
		if e.traced() {
			a = readRuntime()
		}
		id := e.tr.begin("sim/"+j.kind, parent)
		t0 := time.Now()
		res, err := beacon.Run(j.p, j.wl)
		d := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", j.label, err)
		}
		walls[i] = d.Seconds()
		speeds = append(speeds, e.ref.speed())
		if e.traced() {
			b := readRuntime()
			c := r.cost[j.kind]
			c.secs += d.Seconds()
			c.allocs += float64(b.allocs - a.allocs)
			c.bytes += float64(b.allocBytes - a.allocBytes)
		}
		if len(r.ref) < len(r.jobs) {
			r.ref = append(r.ref, res.Report)
			continue
		}
		e.checks.check(reflect.DeepEqual(res.Report, r.ref[i]), "replay %s: report differs from the first pass", j.label)
	}
	k := median(speeds)
	for i := range walls {
		walls[i] *= k
	}
	return walls, nil
}

// bestPass sums, over the jobs, each job's fastest time across passes: a
// pass's time with every replay undisturbed. Rescaling follows the host's
// slow spells of minutes; within them the speed still jumps for seconds at
// a time, and a replay's fastest of several passes is one such a jump
// missed, where a median lands on either side of them from run to run.
func bestPass(passes [][]float64) float64 {
	t := 0.0
	for i := range passes[0] {
		col := make([]float64, len(passes))
		for p := range passes {
			col[p] = passes[p][i]
		}
		t += slices.Min(col)
	}
	return t
}

// observe replays every job once more with an observer attached and
// returns the simulated counts. Observation slows a run two to three
// times, so counts never come from a timed pass. It also checks that
// observing leaves every report unchanged.
func (r *replayer) observe(parent int) (metrics, map[string]float64, error) {
	m := metrics{}
	events := map[string]float64{}
	var cycles, msgs, wire, local, remote float64
	for i, j := range r.jobs {
		ob := obs.New(j.label)
		id := r.e.tr.begin("observe/"+j.kind, parent)
		res, err := beacon.Run(j.p, j.wl, beacon.WithObserver(ob))
		r.e.tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("observed replay %s: %w", j.label, err)
		}
		r.e.checks.check(reflect.DeepEqual(res.Report, r.ref[i]), "replay %s: observing changed the report", j.label)
		v := ob.Metrics.Dump().Final().Values
		events[j.kind] += v["engine.executed_events"]
		cycles += float64(res.Report.Cycles)
		msgs += v["cxl.messages"]
		wire += v["cxl.wire_bytes"]
		local += v["core.local_accesses"]
		remote += v["core.remote_accesses"]
	}
	for k, n := range events {
		m.set("sim."+k+".events", n, "count")
	}
	m.set("sim.cycles_total", cycles, "cycles")
	m.set("cxl.messages", msgs, "count")
	m.set("cxl.wire_bytes", wire, "bytes")
	m.set("core.local_accesses", local, "count")
	m.set("core.remote_accesses", remote, "count")
	return m, events, nil
}

// costMetrics turns the traced passes' host cost into per-event figures.
func (r *replayer) costMetrics(passes int, events map[string]float64) metrics {
	m := metrics{}
	for k, c := range r.cost {
		n := events[k] * float64(passes)
		if n == 0 {
			continue
		}
		m.set("sim."+k+".ns_per_event", c.secs*1e9/n, "ns")
		m.set("sim."+k+".allocs_per_event", c.allocs/n, "count")
		m.set("sim."+k+".bytes_per_event", c.bytes/n, "bytes")
	}
	return m
}

// runReplay is the replay workload: set-up builds the default-scale set,
// and timed passes replay every workload on ddr-ndp, beacon-d and
// beacon-s, serially on one goroutine. The first pass is timed too: a
// replay slowed by a cold start is not its fastest.
func runReplay(e *env) (metrics, error) {
	rc := beacon.DefaultRunConfig()
	rc.Seed = mix(e.seed, 1)
	specs := replaySet(rc)

	var setups, buildAllocs, buildBytes []float64
	var ws []*beacon.Workload
	for rep := 0; rep < setupReps; rep++ {
		ws = nil // let the previous set go before building the next
		a := readRuntime()
		id := e.tr.begin("setup", 0)
		wall, err := e.rescaled(func() (err error) {
			ws, err = buildSet(e, specs, id)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, wall)
		e.tr.end(id)
		b := readRuntime()
		buildAllocs = append(buildAllocs, float64(b.allocs-a.allocs))
		buildBytes = append(buildBytes, float64(b.allocBytes-a.allocBytes))
	}

	r := newReplayer(e, replayJobs(ws))
	var walls [][]float64
	rt0 := readRuntime()
	timed := time.Now()
	for len(walls) < minPasses || time.Since(timed) < e.seconds {
		id := e.tr.begin("pass", 0)
		w, err := r.pass(id)
		if err != nil {
			return nil, err
		}
		e.tr.end(id)
		walls = append(walls, w)
	}
	timedWall := time.Since(timed).Seconds()
	rt1 := readRuntime()

	if !e.traced() {
		m := metrics{}
		m.set("setup_s", median(setups), "s")
		wall := bestPass(walls)
		m.set("wall_s", wall, "s")
		m.set("jobs_per_s", float64(len(r.jobs))/wall, "1/s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		return m, nil
	}

	m := runtimeMetrics(rt0, rt1, len(walls))
	m.set("bench.trace_overhead_frac", float64(e.tr.len())*spanCost().Seconds()/timedWall, "ratio")
	for _, app := range []beacon.Application{beacon.FMSeeding, beacon.HashSeeding, beacon.KmerCounting, beacon.PreAlignment} {
		m.set("build."+app.String()+"_s", e.tr.total("build/"+app.String(), -1)/setupReps, "s")
	}
	m.set("build.allocs", median(buildAllocs), "count")
	m.set("build.alloc_mb", median(buildBytes)/1e6, "MB")
	id := e.tr.begin("observe", 0)
	counts, events, err := r.observe(id)
	if err != nil {
		return nil, err
	}
	e.tr.end(id)
	m.merge(counts)
	m.merge(r.costMetrics(len(walls), events))
	probes, err := runProbes(e, codecProbe, microProbe, runnerProbe, serverProbe)
	if err != nil {
		return nil, err
	}
	probes.merge(m)
	return probes, nil
}
