package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"beacon"
	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/fmindex"
	"beacon/internal/genome"
	"beacon/internal/hashindex"
	"beacon/internal/sim"
	"beacon/internal/trace"
	"beacon/internal/wcache"
)

// runProbes runs layer probes and merges their metrics. A traced run adds
// probes for the layers its workload does not exercise itself, so that
// every traced run reports every per-layer metric.
func runProbes(e *env, probes ...func(*env, uint64) (metrics, error)) (metrics, error) {
	m := metrics{}
	seed := mix(e.seed, 9)
	for _, probe := range probes {
		pm, err := probe(e, seed)
		if err != nil {
			return nil, err
		}
		m.merge(pm)
	}
	return m, nil
}

// timePerOp calls fn(n) with growing n until one call takes at least
// 50 ms, three times, and returns the median time per operation in ns.
func timePerOp(fn func(n int)) float64 {
	var per []float64
	for rep := 0; rep < 3; rep++ {
		for n := 256; ; n *= 2 {
			t0 := time.Now()
			fn(n)
			if d := time.Since(t0); d >= 50*time.Millisecond {
				per = append(per, float64(d)/float64(n))
				break
			}
		}
	}
	return median(per)
}

// timeCall returns the median of three timed calls of fn, in seconds.
func timeCall(fn func() error) (float64, error) {
	var ds []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

func quickFM(seed uint64) beacon.WorkloadConfig {
	q := beacon.QuickRunConfig()
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale, cfg.Reads, cfg.Seed = q.GenomeScale, q.Reads, seed
	return cfg
}

// codecProbe times the trace codec and the workload cache's store on a
// quick-scale FM-seeding workload.
func codecProbe(e *env, seed uint64) (metrics, error) {
	id := e.tr.begin("probe/codec", 0)
	defer e.tr.end(id)
	dir, err := os.MkdirTemp(e.tmp, "codec-")
	if err != nil {
		return nil, err
	}
	wc, err := beacon.OpenWorkloadCache(dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ { // a miss that builds and stores, then a hit
		wl, err := beacon.NewWorkloadCached(beacon.FMSeeding, quickFM(seed), wc)
		if err != nil {
			return nil, fmt.Errorf("codec probe: %w", err)
		}
		e.checks.check(wl.Verified, "codec probe: workload %s not verified", wl.Name)
	}
	st := wc.Stats()
	files, err := filepath.Glob(filepath.Join(dir, "*.bwl"))
	if err != nil || len(files) != 1 {
		return nil, fmt.Errorf("codec probe: want one cache entry, found %v (%v)", files, err)
	}
	info, err := os.Stat(files[0])
	if err != nil {
		return nil, err
	}
	key := strings.TrimSuffix(filepath.Base(files[0]), ".bwl")
	store, err := wcache.Open(dir)
	if err != nil {
		return nil, err
	}
	ent, err := store.Get(key)
	if err != nil || ent == nil {
		return nil, fmt.Errorf("codec probe: get %s: %v", key, err)
	}
	data := trace.EncodeWorkload(ent.Workload)
	enc := timePerOp(func(n int) {
		for i := 0; i < n; i++ {
			trace.EncodeWorkload(ent.Workload)
		}
	})
	var decErr error
	dec := timePerOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := trace.DecodeWorkload(data); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("codec probe: decode: %w", decErr)
	}
	var storeErr error
	put := timePerOp(func(n int) {
		for i := 0; i < n; i++ {
			if err := store.Put(key, ent); err != nil {
				storeErr = err
			}
		}
	})
	get := timePerOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := store.Get(key); err != nil {
				storeErr = err
			}
		}
	})
	if storeErr != nil {
		return nil, fmt.Errorf("codec probe: store: %w", storeErr)
	}
	mb := float64(len(data)) / 1e6
	m := metrics{}
	m.set("trace.encode_mb_per_s", mb/(enc/1e9), "MB/s")
	m.set("trace.decode_mb_per_s", mb/(dec/1e9), "MB/s")
	m.set("trace.entry_kb", float64(info.Size())/1024, "kB")
	m.set("wcache.put_ms", put/1e6, "ms")
	m.set("wcache.get_ms", get/1e6, "ms")
	m.set("wcache.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses), "ratio")
	return m, nil
}

// microProbe times fixed-size calls into the construction and machine
// layers' public functions.
func microProbe(e *env, seed uint64) (metrics, error) {
	id := e.tr.begin("probe/micro", 0)
	defer e.tr.end(id)
	m := metrics{}
	scale := beacon.DefaultRunConfig().GenomeScale
	var ref *genome.Sequence
	synth, err := timeCall(func() (err error) {
		ref, err = genome.SpeciesGenome(genome.PinusTaeda, scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	fm, err := timeCall(func() error { _, err := fmindex.Build(ref); return err })
	if err != nil {
		return nil, err
	}
	hi, err := timeCall(func() error { _, err := hashindex.Build(ref, hashindex.DefaultConfig()); return err })
	if err != nil {
		return nil, err
	}
	m.set("genome.synth_s", synth, "s")
	m.set("fmindex.build_s", fm, "s")
	m.set("hashindex.build_s", hi, "s")

	// The engine: a standing population of 4096 self-rescheduling events
	// with seeded strides, every 64th far ahead of the calendar window.
	m.set("sim.engine.ns_per_event", (timePerOp(func(n int) {
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		left := n
		var step func()
		step = func() {
			if left == 0 {
				return
			}
			left--
			d := sim.Cycles(1 + rng.Intn(512))
			if left%64 == 0 {
				d = sim.Cycles(100_000 + rng.Intn(1<<20))
			}
			eng.Schedule(d, step)
		}
		for i := 0; i < 4096 && i < n; i++ {
			eng.Schedule(sim.Cycles(rng.Intn(512)), step)
		}
		_, _ = eng.Run() // a fresh engine with forward delays cannot fail
	})), "ns")
	for _, w := range []int{1, 128, 256} {
		m.set(fmt.Sprintf("sim.acquire.w%d_ns", w), (timePerOp(func(n int) {
			r := sim.NewResource("probe", w)
			now := sim.Cycle(0)
			for i := 0; i < n; i++ {
				now += sim.Cycle(i & 1)
				r.Acquire(now, sim.Cycles(1+i%(2*w)))
			}
		})), "ns")
	}

	f, err := cxl.New(cxl.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pairs := [][2]cxl.NodeID{
		{cxl.DIMM(0, 0), cxl.DIMM(1, 3)},
		{cxl.DIMM(0, 1), cxl.DIMM(0, 2)},
		{cxl.Host(), cxl.DIMM(1, 1)},
		{cxl.DIMM(1, 2), cxl.Host()},
	}
	var pathErr error
	m.set("cxl.pathhops_ns", (timePerOp(func(n int) {
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			if _, _, err := f.PathHops(p[0], p[1], 16+i%48, i&1 == 0, i%8 == 0); err != nil {
				pathErr = err
			}
		}
	})), "ns")
	hops, wire, err := f.PathHops(cxl.DIMM(0, 0), cxl.DIMM(1, 3), 32, true, false)
	if err != nil || pathErr != nil {
		return nil, fmt.Errorf("cxl probe: %v %v", err, pathErr)
	}
	m.set("cxl.traverse_ns", (timePerOp(func(n int) {
		t := sim.Cycle(0)
		for i := 0; i < n; i++ {
			t = hops[i%len(hops)].Traverse(t, wire)
		}
	})), "ns")

	cfg := dram.DefaultConfig()
	d, err := dram.NewDIMM("probe", cfg, 4)
	if err != nil {
		return nil, err
	}
	var accErr error
	m.set("dram.access_ns", (timePerOp(func(n int) {
		now := sim.Cycle(0)
		for i := 0; i < n; i++ {
			now += 2
			loc := dram.Loc{
				Rank: i % cfg.Ranks,
				Chip: (i * 4) % cfg.ChipsPerRank,
				Bank: (i / 3) % (cfg.BankGroups * cfg.BanksPerGroup),
				Row:  int64((i * 7919) % 4096),
			}
			if _, err := d.Access(now, loc, 32, i%5 == 0, dram.ModeCoalesced); err != nil {
				accErr = err
			}
		}
	})), "ns")
	if accErr != nil {
		return nil, fmt.Errorf("dram probe: %w", accErr)
	}
	return m, nil
}

// buildSimProbe builds the replay set at quick scale and replays it once
// on each platform, for the construction and simulation layers of a
// workload that does not replay itself.
func buildSimProbe(e *env, seed uint64) (metrics, error) {
	id := e.tr.begin("probe/buildsim", 0)
	defer e.tr.end(id)
	rc := beacon.QuickRunConfig()
	rc.Seed = seed
	a := readRuntime()
	ws, err := buildSet(e, replaySet(rc), id)
	if err != nil {
		return nil, err
	}
	b := readRuntime()
	m := metrics{}
	for _, app := range []beacon.Application{beacon.FMSeeding, beacon.HashSeeding, beacon.KmerCounting, beacon.PreAlignment} {
		m.set("build."+app.String()+"_s", e.tr.total("build/"+app.String(), id), "s")
	}
	m.set("build.allocs", float64(b.allocs-a.allocs), "count")
	m.set("build.alloc_mb", float64(b.allocBytes-a.allocBytes)/1e6, "MB")
	r := newReplayer(e, replayJobs(ws))
	if _, err := r.pass(id); err != nil { // the reference pass
		return nil, err
	}
	r.resetCost()
	if _, err := r.pass(id); err != nil {
		return nil, err
	}
	counts, events, err := r.observe(id)
	if err != nil {
		return nil, err
	}
	m.merge(counts)
	m.merge(r.costMetrics(1, events))
	return m, nil
}

// runnerProbe runs an evaluation at tiny scale for the orchestration
// layer, which no workload runs itself.
func runnerProbe(e *env, seed uint64) (metrics, error) {
	id := e.tr.begin("probe/runner", 0)
	defer e.tr.end(id)
	t0 := time.Now()
	log, err := evaluate(e, tinyRunConfig(seed), id)
	if err != nil {
		return nil, err
	}
	return runnerMetrics(log, time.Since(t0)), nil
}

// serverProbe runs two short daemon rounds on one workload cache, the
// second replaying the first's specs under swapped tenants, for the
// daemon layer of a workload that does not serve jobs itself.
func serverProbe(e *env, seed uint64) (metrics, error) {
	id := e.tr.begin("probe/server", 0)
	defer e.tr.end(id)
	dir, err := os.MkdirTemp(e.tmp, "wcache-")
	if err != nil {
		return nil, err
	}
	// Five specs per client and round: the 20 latencies leave ten beyond
	// the median.
	a, err := specList(seed, 100, 5)
	if err != nil {
		return nil, err
	}
	b, err := specList(seed, 101, 5)
	if err != nil {
		return nil, err
	}
	var rounds []*round
	for _, specs := range [][clients][][]byte{{a, b}, {b, a}} {
		rd, err := runRound(e, dir, [clients]string{"probe-a", "probe-b"}, specs, id)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
	}
	return serverMetrics(rounds)
}
