// Package obs is the simulator's observability layer: a deterministic,
// allocation-light metrics registry (counters, gauges, fixed-bucket
// histograms), a simulated-timeline tracer that exports Chrome trace_event
// JSON, and run-provenance capture (config hash, seed, git revision).
//
// Two hard rules shape the package:
//
//   - Instrumentation is observation-only. Nothing in here schedules events,
//     allocates on the simulation's hot path beyond amortized appends, or
//     feeds back into any timing decision. A run with observability enabled
//     produces cycle counts byte-identical to a run without it.
//   - Disabled instrumentation costs one branch. Every method is safe on a
//     nil receiver, so components hold plain pointers and call through them
//     unconditionally; a nil Tracer or Registry turns every hook into a
//     predictable not-taken branch.
//
// The package depends only on the standard library so every layer of the
// simulator — the event kernel included — can import it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// usable; a nil Counter ignores all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v <= Bounds[i] (the first bucket that fits wins); values above the last
// bound land in the overflow bucket. The zero value is not usable; obtain
// histograms from a Registry. A nil Histogram ignores observations.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum and fit no bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[idx]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Counts returns the per-bucket counts; the final element is the overflow
// bucket (> last bound).
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...)
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// ExpBuckets returns n exponentially spaced bucket upper bounds starting at
// start and multiplying by factor — the usual shape for cycle-latency
// histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// Snapshot is the value of every counter and gauge at one simulated cycle.
type Snapshot struct {
	// Cycle is the simulated time of the snapshot.
	Cycle int64 `json:"cycle"`
	// Values maps metric name to value. encoding/json renders map keys
	// sorted, so the serialized form is deterministic.
	Values map[string]float64 `json:"values"`
}

// Registry holds a component tree's metrics and a time series of snapshots.
// Registration and updates are safe for concurrent use (simulations run in
// parallel under the orchestrator); all output orders are sorted by metric
// name, never by map iteration, so two identical runs dump identical bytes.
// A nil Registry accepts registrations and snapshots as no-ops.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]func() float64
	hists  map[string]*Histogram
	series []Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]func() float64{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge registers a polled gauge: fn is read at every snapshot. Registering
// the same name again replaces the function. fn must be safe to call from
// the snapshotting goroutine (for simulator components that means the
// simulation's own goroutine — snapshots are taken by the engine hook).
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (bounds must be sorted
// ascending; they are copied). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(b) {
			sort.Float64s(b)
		}
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot records the current value of every counter and gauge at the
// given simulated cycle, appending to the registry's time series.
func (r *Registry) Snapshot(cycle int64) { r.snapshot(cycle, false) }

// snapshot is Snapshot; with freeze set it also replaces every gauge by a
// constant of the value just recorded, so the registry stops referencing
// whatever the polled functions captured.
func (r *Registry) snapshot(cycle int64, freeze bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	vals := make(map[string]float64, len(r.ctrs)+len(r.gauges))
	for name, c := range r.ctrs {
		vals[name] = float64(c.Value())
	}
	for name, fn := range r.gauges {
		v := fn()
		vals[name] = v
		if freeze {
			r.gauges[name] = func() float64 { return v }
		}
	}
	r.series = append(r.series, Snapshot{Cycle: cycle, Values: vals})
}

// Snapshots returns the recorded time series.
func (r *Registry) Snapshots() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Snapshot(nil), r.series...)
}

// HistogramDump is the serialized form of one histogram — the shape
// WriteMetricsJSON produces and ReadMetricsJSON consumes.
type HistogramDump struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// RegistryDump captures one registry's full serializable state: the
// snapshot time series plus final histogram contents.
type RegistryDump struct {
	Snapshots  []Snapshot               `json:"snapshots"`
	Histograms map[string]HistogramDump `json:"histograms,omitempty"`
}

// Final returns the last snapshot (the end-of-run values), or a zero
// snapshot when the series is empty.
func (d RegistryDump) Final() Snapshot {
	if len(d.Snapshots) == 0 {
		return Snapshot{}
	}
	return d.Snapshots[len(d.Snapshots)-1]
}

// Dump captures the registry's serializable state. Safe on nil (empty
// dump).
func (r *Registry) Dump() RegistryDump {
	d := RegistryDump{Snapshots: r.Snapshots()}
	if d.Snapshots == nil {
		d.Snapshots = []Snapshot{}
	}
	if r == nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.hists) > 0 {
		d.Histograms = make(map[string]HistogramDump, len(r.hists))
		for name, h := range r.hists {
			d.Histograms[name] = HistogramDump{
				Bounds: h.Bounds(), Counts: h.Counts(), Count: h.Count(), Sum: h.Sum(),
			}
		}
	}
	return d
}

// counterNames returns the registered counter names, sorted — used by the
// OpenMetrics writer to type families (counters vs gauges).
func (r *Registry) counterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ctrs))
	for n := range r.ctrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON serializes the snapshot series and histograms. Output bytes are
// deterministic for identical registries (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Dump())
}

// WriteCSV serializes the snapshot series as cycle,name,value rows, sorted
// by (snapshot order, name).
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "cycle,metric,value\n"); err != nil {
		return err
	}
	for _, s := range r.Snapshots() {
		names := make([]string, 0, len(s.Values))
		for n := range s.Values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			_, err := fmt.Fprintf(w, "%d,%s,%s\n", s.Cycle, n,
				strconv.FormatFloat(s.Values[n], 'g', -1, 64))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
