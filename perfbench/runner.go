package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"beacon"
)

// evalJobs is the runner probe's pool width, as in `beaconbench -jobs 1`:
// the benchmark runs on one core (see main).
const evalJobs = 1

// tinyRunConfig is a scale at which a whole evaluation takes about two
// seconds: the runner probe's.
func tinyRunConfig(seed uint64) beacon.RunConfig {
	return beacon.RunConfig{GenomeScale: 500, Reads: 10, Seed: seed}
}

// evaluate runs one evaluation with a progress log attached.
func evaluate(e *env, rc beacon.RunConfig, parent int) (*progressLog, error) {
	log := newProgressLog()
	id := e.tr.begin("evaluation", parent)
	_, err := beacon.RunEvaluation(context.Background(), rc, beacon.EvalOptions{Jobs: evalJobs, Progress: log})
	e.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("evaluation: %w", err)
	}
	e.checks.check(len(log.errs) == 0, "evaluation progress log: %v", log.errs)
	for _, j := range log.jobs {
		e.checks.check(!j.Failed, "evaluation job %s failed", j.Label)
	}
	return log, nil
}

// runnerMetrics describes the runner pool over one evaluation of the
// given wall time from its progress log.
func runnerMetrics(log *progressLog, wall time.Duration) metrics {
	m := metrics{}
	busy := 0.0
	byKind := map[string]float64{}
	ats := make([]float64, 0, len(log.jobs))
	for _, j := range log.jobs {
		busy += j.Dur.Seconds()
		byKind[j.Platform] += j.Dur.Seconds()
		ats = append(ats, j.At.Seconds())
	}
	sort.Float64s(ats)
	m.set("runner.jobs", float64(len(log.jobs)), "count")
	m.set("runner.busy_frac", busy/(evalJobs*wall.Seconds()), "ratio")
	// The tail is the time from when the pool could last have had every
	// slot busy (the completion that left fewer jobs than slots) to the end.
	tail := wall.Seconds()
	if n := len(ats); n >= evalJobs {
		tail -= ats[n-evalJobs]
	}
	m.set("runner.tail_s", tail, "s")
	for _, k := range []string{"cpu", "ddr-ndp", "beacon-d", "beacon-s"} {
		m.set("runner.job_s."+k, byKind[k], "s")
	}
	return m
}
