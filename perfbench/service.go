package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"beacon"
	"beacon/internal/obs"
	"beacon/internal/server"
)

const (
	// clients is the closed loop's client count: two tenants, one
	// connection each, taking turns.
	clients = 2
	// warmSpecs is how many distinct specs set-up runs. A spec's cost
	// depends on its inputs: the fastest pass over 8 specs differs by 15%
	// from one --seed to another, so the pass holds 16. A timed round has
	// each client run half of them, the halves swapping every round. The
	// daemon keeps every finished job's observability data (about 40 MB
	// for a quick FM-seeding job with -observe=true, its default), so a
	// daemon serves one round of 16 jobs and is then drained; a run's few
	// hundred jobs on one daemon would need several GB.
	warmSpecs = 16
	// pollEvery is the status poll interval, a few percent of the 80-200
	// ms a warm job takes.
	pollEvery = 5 * time.Millisecond
	// minRounds is the fewest timed rounds a run makes, so that every
	// spec runs at least twice.
	minRounds = 4
	// jobTimeout bounds one job, so a stuck daemon fails the run instead
	// of hanging it.
	jobTimeout = 60 * time.Second
)

// fmSpec is a service job: FM seeding at quick scale on beacon-s with
// every optimization, as a RunSpec body.
func fmSpec(sp beacon.Species, seed uint64) ([]byte, error) {
	q := beacon.QuickRunConfig()
	cfg := beacon.DefaultWorkloadConfig(sp)
	cfg.GenomeScale, cfg.Reads, cfg.Seed = q.GenomeScale, q.Reads, seed
	s := beacon.NewRunSpec(beacon.FMSeeding, cfg)
	s.Kind = beacon.BeaconS
	return json.Marshal(s)
}

// specList builds n specs cycling through the seeding species, each with
// its own seed from stream.
func specList(seed, stream uint64, n int) ([][]byte, error) {
	species := beacon.AllSeedingSpecies()
	out := make([][]byte, n)
	for i := range out {
		s, err := fmSpec(species[i%len(species)], mix(mix(seed, stream), uint64(i)))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// daemon is one beaconsimd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	mu     sync.Mutex
	lines  []string      // stderr, for the traced run's gctrace lines
	closed chan struct{} // stderr reached EOF
	state  *os.ProcessState
}

// startDaemon starts beaconsimd at its defaults except for a private
// workload cache and an ephemeral loopback port, on one core like the
// benchmark (so its default -jobs is 1), and waits until it answers
// /healthz.
func startDaemon(e *env, cacheDir string) (*daemon, error) {
	cmd := exec.Command(e.simd, "-addr", "127.0.0.1:0", "-workload-cache", cacheDir)
	cmd.Env = append(os.Environ(), "TMPDIR="+e.tmp, "GOMAXPROCS=1")
	if e.traced() {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start beaconsimd: %w", err)
	}
	d := &daemon{cmd: cmd, closed: make(chan struct{})}
	addr := make(chan string, 1) // the reader sends at most once and never blocks
	go func() {
		defer close(d.closed)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.closed:
		d.kill()
		return nil, fmt.Errorf("beaconsimd exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("beaconsimd did not listen within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("beaconsimd not healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it; a drain that does
// not exit 0 is a failed check.
func (d *daemon) stop(e *env) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal beaconsimd: %w", err)
	}
	<-d.closed
	err := d.cmd.Wait()
	d.state = d.cmd.ProcessState
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return fmt.Errorf("wait for beaconsimd: %w", err)
	}
	e.checks.check(err == nil, "beaconsimd drain: %v", err)
	return nil
}

// kill ends the daemon if it still runs and waits for it.
func (d *daemon) kill() {
	if d.state != nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.closed
	_ = d.cmd.Wait() // the process was killed; its status says nothing
	d.state = d.cmd.ProcessState
}

func (d *daemon) peakRSSMB() float64 {
	if ru, ok := d.state.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (d *daemon) stderr() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.lines...)
}

// client is one tenant with one connection.
type client struct {
	hc     *http.Client
	base   string
	tenant string
}

func newClient(base, tenant string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: jobTimeout}, base: base, tenant: tenant}
}

// jobResult is one closed-loop job: submit, poll, report.
type jobResult struct {
	ok        bool
	latency   time.Duration // POST sent to report body received
	submit    time.Duration // the POST round trip
	queueWait time.Duration // POST answered to first poll past "queued"
	report    time.Duration // the report GET round trip
	polls     int
	etag      string
}

// do sends one request and reads the whole body. Any status other than
// 2xx or 304 is an error.
func (c *client) do(method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if (resp.StatusCode < 200 || resp.StatusCode > 299) && resp.StatusCode != http.StatusNotModified {
		return nil, nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return resp, data, nil
}

// job runs one spec through submit, poll and report.
func (c *client) job(spec []byte) (jobResult, error) {
	var r jobResult
	t0 := time.Now()
	_, body, err := c.do(http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return r, err
	}
	r.submit = time.Since(t0)
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return r, fmt.Errorf("submit answer: %w", err)
	}
	for st.State != server.JobDone && st.State != server.JobFailed {
		if time.Since(t0) > jobTimeout {
			return r, fmt.Errorf("job %s still %s after %v", st.ID, st.State, jobTimeout)
		}
		time.Sleep(pollEvery)
		_, body, err := c.do(http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if err != nil {
			return r, err
		}
		r.polls++
		if err := json.Unmarshal(body, &st); err != nil {
			return r, fmt.Errorf("status answer: %w", err)
		}
		if st.State != server.JobQueued && r.queueWait == 0 {
			r.queueWait = time.Since(t0) - r.submit
		}
	}
	if st.State == server.JobFailed {
		return r, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	t1 := time.Now()
	resp, _, err := c.do(http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil)
	if err != nil {
		return r, err
	}
	r.report = time.Since(t1)
	r.latency = time.Since(t0)
	r.etag = resp.Header.Get("ETag")
	r.ok = true
	return r, nil
}

// round is one daemon process serving each client's spec list in a
// closed loop.
type round struct {
	jobs  [clients][]jobResult
	speed float64 // the host's median speed between jobs (host.go)
	rssMB float64 // the daemon's peak RSS
	// The /metrics exposition at the end of the round (traced runs): its
	// size and its samples by name.
	metricsKB float64
	counters  map[string]float64
	gctrace   []string // the daemon's gctrace lines (traced runs)
}

// runRound starts a daemon on cacheDir, has client k run specs[k] as
// tenants[k], and drains the daemon. The clients take turns, one job in
// flight at a time, so a job's latency is its own and not its wait behind
// the other tenant's. The host's speed is read between jobs, as in a
// replay pass. Failed jobs are failed checks.
func runRound(e *env, cacheDir string, tenants [clients]string, specs [clients][][]byte, parent int) (*round, error) {
	d, err := startDaemon(e, cacheDir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	rd := &round{}
	id := e.tr.begin("round", parent)
	var cs [clients]*client
	for k := range cs {
		cs[k] = newClient(d.base, tenants[k])
		defer cs[k].hc.CloseIdleConnections()
	}
	speeds := []float64{e.ref.speed()}
	for i := 0; i < len(specs[0]) || i < len(specs[1]); i++ {
		for k, c := range cs {
			if i >= len(specs[k]) {
				continue
			}
			jid := e.tr.begin("job/"+tenants[k], id)
			r, err := c.job(specs[k][i])
			e.tr.end(jid)
			e.checks.check(err == nil, "tenant %s: %v", tenants[k], err)
			speeds = append(speeds, e.ref.speed())
			rd.jobs[k] = append(rd.jobs[k], r)
		}
	}
	rd.speed = median(speeds)
	e.tr.end(id)
	if e.traced() {
		c := newClient(d.base, "bench")
		_, body, err := c.do(http.MethodGet, "/metrics", nil)
		c.hc.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %w", err)
		}
		rd.metricsKB = float64(len(body)) / 1024
		fams, err := obs.ParseOpenMetrics(bytes.NewReader(body))
		e.checks.check(err == nil, "beaconsimd /metrics exposition: %v", err)
		rd.counters = map[string]float64{}
		for _, f := range fams {
			for _, smp := range f.Samples {
				rd.counters[smp.Name] += smp.Value
			}
		}
	}
	if err := d.stop(e); err != nil {
		return nil, err
	}
	rd.rssMB = d.peakRSSMB()
	for _, l := range d.stderr() {
		if strings.HasPrefix(l, "gc ") {
			rd.gctrace = append(rd.gctrace, l)
		}
	}
	return rd, nil
}

// runService is the service workload. Set-up starts a daemon on a fresh
// workload cache and runs the warm specs as a third tenant, so set-up pays
// the daemon start and every cache miss: build, encode, put. Timed rounds
// then have each client run all the warm specs in a closed loop, so every
// job is a cache hit (get, decode), and each report's ETag is checked
// against the set-up tenant's. wall_s is one pass over the warm specs with
// each spec at its fastest rescaled latency across tenants and rounds.
func runService(e *env) (metrics, error) {
	seed := mix(e.seed, 4)
	warmList, err := specList(seed, 0, warmSpecs)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var cacheDir string
	var etags []string
	for rep := 0; rep < setupReps; rep++ {
		id := e.tr.begin("setup", 0)
		dir, err := os.MkdirTemp(e.tmp, "wcache-")
		if err != nil {
			return nil, err
		}
		cacheDir = dir
		half := len(warmList) / 2
		var rd *round
		wall, err := e.rescaled(func() (err error) {
			rd, err = runRound(e, dir, [clients]string{"setup", "setup"},
				[clients][][]byte{warmList[:half], warmList[half:]}, id)
			return err
		})
		if err != nil {
			return nil, err
		}
		etags = nil
		for _, js := range rd.jobs {
			for _, j := range js {
				etags = append(etags, j.etag)
			}
		}
		setups = append(setups, wall)
		e.tr.end(id)
	}

	tenants := [clients]string{"tenant-a", "tenant-b"}
	var rounds []*round
	best := make([]float64, len(warmList)) // fastest rescaled latency by spec
	for i := range best {
		best[i] = math.Inf(1)
	}
	half := len(warmList) / clients
	timed := time.Now()
	for len(rounds) < minRounds || time.Since(timed) < e.seconds {
		var specs [clients][][]byte
		var order [clients][]int // index into warmList per job
		for k := range specs {
			first := (k + len(rounds)) % clients * half
			for j := first; j < first+half; j++ {
				specs[k] = append(specs[k], warmList[j])
				order[k] = append(order[k], j)
			}
		}
		rd, err := runRound(e, cacheDir, tenants, specs, 0)
		if err != nil {
			return nil, err
		}
		for k, js := range rd.jobs {
			for i, j := range js {
				if !j.ok {
					continue // a failed check already
				}
				s := order[k][i]
				best[s] = min(best[s], j.latency.Seconds()*rd.speed)
				e.checks.check(j.etag == etags[s], "warm job ETag %s, set-up tenant got %s", j.etag, etags[s])
			}
		}
		rounds = append(rounds, rd)
	}
	timedWall := time.Since(timed).Seconds()

	if !e.traced() {
		var rss []float64
		for _, rd := range rounds {
			rss = append(rss, rd.rssMB)
		}
		m := metrics{}
		m.set("setup_s", median(setups), "s")
		wall := sum(best)
		if math.IsInf(wall, 1) {
			return nil, fmt.Errorf("a warm spec never completed")
		}
		m.set("wall_s", wall, "s")
		m.set("jobs_per_s", float64(len(warmList))/wall, "1/s")
		m.set("peak_rss_mb", median(rss), "MB")
		return m, nil
	}

	m, err := serverMetrics(rounds)
	if err != nil {
		return nil, err
	}
	m.set("bench.trace_overhead_frac", float64(e.tr.len())*spanCost().Seconds()/timedWall, "ratio")
	m.merge(gcMetrics(rounds))
	probes, err := runProbes(e, codecProbe, microProbe, buildSimProbe, runnerProbe)
	if err != nil {
		return nil, err
	}
	probes.merge(m)
	return probes, nil
}

// serverMetrics describes the daemon layer over some rounds: client-side
// request timings, and the daemon's own counters from /metrics.
func serverMetrics(rounds []*round) (metrics, error) {
	var lat, submit, wait, report, kb []float64
	polls, jobs := 0, 0
	counters := map[string]float64{}
	for _, rd := range rounds {
		for _, js := range rd.jobs {
			for _, j := range js {
				if !j.ok {
					continue
				}
				jobs++
				polls += j.polls
				lat = append(lat, ms(j.latency))
				submit = append(submit, ms(j.submit))
				wait = append(wait, ms(j.queueWait))
				report = append(report, ms(j.report))
			}
		}
		kb = append(kb, rd.metricsKB)
		for k, v := range rd.counters {
			counters[k] += v
		}
	}
	m := metrics{}
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, fmt.Errorf("job latency: %w", err)
	}
	m.set("server.job_ms_p50", p50, "ms")
	m.set("server.submit_ms_p50", median(submit), "ms")
	m.set("server.queue_wait_ms_p50", median(wait), "ms")
	m.set("server.report_ms_p50", median(report), "ms")
	m.set("server.polls_per_job", float64(polls)/float64(max(jobs, 1)), "count")
	m.set("server.metrics_kb", median(kb), "kB")
	m.set("server.jobs_succeeded", counters["beaconsimd_jobs_succeeded_total"], "count")
	m.set("server.jobs_failed", counters["beaconsimd_jobs_failed_total"], "count")
	m.set("server.jobs_rejected", counters["beaconsimd_jobs_rejected_quota_total"]+
		counters["beaconsimd_jobs_rejected_queue_full_total"], "count")
	hits, misses := counters["beaconsimd_wcache_hits_total"], counters["beaconsimd_wcache_misses_total"]
	if hits+misses > 0 {
		m.set("wcache.hit_ratio", hits/(hits+misses), "ratio")
	}
	return m, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// gcMetrics reads the runtime layer of the daemons from their gctrace
// lines ("gc 7 @1.2s 4%: ..., 12->13->5 MB, ..."): cycles and heap
// allocated per job, and the GC's share of the daemons' time.
func gcMetrics(rounds []*round) metrics {
	cycles, jobs := 0, 0
	alloc := 0.0
	var frac []float64 // per daemon, its GC share since it started
	for _, rd := range rounds {
		jobs += len(rd.jobs[0]) + len(rd.jobs[1])
		live, last := 0.0, -1.0
		for _, l := range rd.gctrace {
			f := strings.Fields(l)
			if len(f) < 4 {
				continue
			}
			cycles++
			if p, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "%:"), 64); err == nil {
				last = p / 100
			}
			for i, w := range f {
				if w == "MB," && i > 0 && strings.Count(f[i-1], "->") == 2 {
					hs := strings.Split(f[i-1], "->")
					start, _ := strconv.ParseFloat(hs[0], 64)
					end, _ := strconv.ParseFloat(hs[2], 64)
					alloc += max(start-live, 0)
					live = end
					break
				}
			}
		}
		if last >= 0 {
			frac = append(frac, last)
		}
	}
	m := metrics{}
	jobs = max(jobs, 1)
	m.set("runtime.gc_cycles", float64(cycles)/float64(jobs), "count")
	m.set("runtime.alloc_mb", alloc*1.048576/float64(jobs), "MB") // gctrace MB are MiB
	if len(frac) > 0 {
		m.set("runtime.gc_cpu_frac", median(frac), "ratio")
	}
	return m
}
