package obs

import (
	"sort"
	"strings"
	"sync"
)

// Resource classes for cycle accounting. A class groups resources of one
// hardware kind so the bottleneck report can roll individual resources up
// into "the DIMMs" vs "the links" vs "the PEs". Classes are single tokens
// (no dots) because they become one segment of the util.* metric names.
const (
	// ClassLink is a CXL link direction (host-switch or switch-DIMM).
	ClassLink = "link"
	// ClassSwitch is an in-switch routing stage (the Switch-Bus ports).
	ClassSwitch = "switch"
	// ClassPacker is a Data Packer pipeline.
	ClassPacker = "packer"
	// ClassDIMM is a DRAM module's chip data buses.
	ClassDIMM = "dimm"
	// ClassPE is an NDP module's processing-element pool.
	ClassPE = "pe"
	// ClassAtomic is an atomic RMW engine bank.
	ClassAtomic = "atomic"
	// ClassBus is a shared DDR channel bus (baseline platforms).
	ClassBus = "bus"
	// ClassHostBridge is the host memory-controller bridge (baselines).
	ClassHostBridge = "hostbridge"
	// ClassHostCPU is the host CPU pool absorbing fault fallbacks.
	ClassHostCPU = "hostcpu"
)

// Span is one resource's cycle account. Every simulated cycle of the
// resource is classified busy (doing useful work), stalled (occupied but
// blocked: tFAW windows, refresh charges, fault stalls) or idle — idle is
// never stored, it is derived at attribution time as
// width*window - busy - stall. Wait cycles ride along as a fourth,
// non-exclusive series: the aggregate time requests spent queued behind
// the resource (it can exceed width*window when many requests wait in
// parallel), which separates "saturated" from "merely busy".
//
// A Span has two drive modes, usable together:
//
//   - Polled: the Meter's Busy/Stall/Wait funcs read counters the component
//     already maintains (a sim.Resource's busy cycles, a DIMM's stats).
//     This is the preferred mode — the component's counter stays the single
//     source of truth and the span adds zero hot-path work.
//   - Direct: components without a counter call AddBusy/AddStall/AddWait
//     from their existing hooks.
//
// Both modes are observation-only by construction: a span holds no
// simulation state, schedules nothing, and is read only at snapshot time.
// All methods are safe on a nil *Span (one branch, no recording).
type Span struct {
	class, name string
	width       int
	busyFn      func() int64
	stallFn     func() int64
	waitFn      func() int64
	// Directly driven residue, added to the polled values.
	busy, stall, wait int64
}

// Class returns the span's resource class.
func (s *Span) Class() string {
	if s == nil {
		return ""
	}
	return s.class
}

// Name returns the resource name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Width returns the number of parallel servers the resource has.
func (s *Span) Width() int {
	if s == nil {
		return 0
	}
	return s.width
}

// AddBusy records d directly-driven busy cycles.
func (s *Span) AddBusy(d int64) {
	if s == nil {
		return
	}
	s.busy += d
}

// AddStall records d directly-driven stall cycles.
func (s *Span) AddStall(d int64) {
	if s == nil {
		return
	}
	s.stall += d
}

// AddWait records d directly-driven wait cycles.
func (s *Span) AddWait(d int64) {
	if s == nil {
		return
	}
	s.wait += d
}

// BusyCycles returns the cumulative busy cycles (polled + direct).
func (s *Span) BusyCycles() int64 {
	if s == nil {
		return 0
	}
	v := s.busy
	if s.busyFn != nil {
		v += s.busyFn()
	}
	return v
}

// StallCycles returns the cumulative stall cycles (polled + direct).
func (s *Span) StallCycles() int64 {
	if s == nil {
		return 0
	}
	v := s.stall
	if s.stallFn != nil {
		v += s.stallFn()
	}
	return v
}

// WaitCycles returns the cumulative wait cycles (polled + direct).
func (s *Span) WaitCycles() int64 {
	if s == nil {
		return 0
	}
	v := s.wait
	if s.waitFn != nil {
		v += s.waitFn()
	}
	return v
}

// Meter describes one resource's cycle sources for Accountant.Track. Any
// of the funcs may be nil: a nil Busy still registers the busy gauge (the
// span may be directly driven); a nil Stall or Wait suppresses that gauge
// so resources without a stall concept don't pad every snapshot with
// zeros.
type Meter struct {
	// Class is one of the Class* constants (a single dot-free token).
	Class string
	// Name identifies the resource within its class (may contain dots).
	Name string
	// Width is the resource's parallel-server count (>= 1).
	Width int
	// Busy/Stall/Wait read the component's own cumulative counters. They
	// are polled from the registry's snapshot hook on the simulation's own
	// goroutine.
	Busy, Stall, Wait func() int64
}

// Accountant collects the cycle accounts of one simulation's resources.
// Each tracked span is mirrored into the Obs's registry as polled gauges
//
//	util.<class>.<name>.width
//	util.<class>.<name>.busy_cycles
//	util.<class>.<name>.stall_cycles  (when a stall source exists)
//	util.<class>.<name>.wait_cycles   (when a wait source exists)
//
// so the existing snapshot series is the utilization timeline — no new
// events, no extra sampling machinery, and the OpenMetrics/JSON artifacts
// carry everything bottleneck attribution needs (see NewProfile).
//
// A nil *Accountant is the disabled state: Track returns a nil Span and
// every method no-ops, so components call through unconditionally.
type Accountant struct {
	reg *Registry

	mu    sync.Mutex
	spans []*Span
}

// newAccountant returns an accountant registering its gauges on reg.
func newAccountant(reg *Registry) *Accountant {
	return &Accountant{reg: reg}
}

// Track registers one resource's cycle account and returns its span.
// Dots in the class are normalized to underscores so util.* metric names
// stay parseable; a non-positive width is clamped to 1.
func (a *Accountant) Track(m Meter) *Span {
	if a == nil {
		return nil
	}
	if m.Width <= 0 {
		m.Width = 1
	}
	s := &Span{
		class:  strings.ReplaceAll(m.Class, ".", "_"),
		name:   m.Name,
		width:  m.Width,
		busyFn: m.Busy, stallFn: m.Stall, waitFn: m.Wait,
	}
	a.mu.Lock()
	a.spans = append(a.spans, s)
	a.mu.Unlock()

	prefix := "util." + s.class + "." + s.name + "."
	width := float64(s.width)
	a.reg.Gauge(prefix+"width", func() float64 { return width })
	a.reg.Gauge(prefix+"busy_cycles", func() float64 { return float64(s.BusyCycles()) })
	if m.Stall != nil {
		a.reg.Gauge(prefix+"stall_cycles", func() float64 { return float64(s.StallCycles()) })
	}
	if m.Wait != nil {
		a.reg.Gauge(prefix+"wait_cycles", func() float64 { return float64(s.WaitCycles()) })
	}
	return s
}

// TrackDirect registers a span with no polled sources; the caller drives
// it through AddBusy/AddStall/AddWait. All four gauges are registered.
func (a *Accountant) TrackDirect(class, name string, width int) *Span {
	if a == nil {
		return nil
	}
	s := a.Track(Meter{Class: class, Name: name, Width: width})
	prefix := "util." + s.class + "." + s.name + "."
	a.reg.Gauge(prefix+"stall_cycles", func() float64 { return float64(s.StallCycles()) })
	a.reg.Gauge(prefix+"wait_cycles", func() float64 { return float64(s.WaitCycles()) })
	return s
}

// freeze folds every span's polled sources into its direct counts and
// drops the source functions, releasing the components they capture.
func (a *Accountant) freeze() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.spans {
		s.busy, s.stall, s.wait = s.BusyCycles(), s.StallCycles(), s.WaitCycles()
		s.busyFn, s.stallFn, s.waitFn = nil, nil, nil
	}
}

// Spans returns the tracked spans ordered by (class, name) — never by
// registration timing, so concurrent instrumentation cannot reorder
// output.
func (a *Accountant) Spans() []*Span {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := append([]*Span(nil), a.spans...)
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].class != out[j].class {
			return out[i].class < out[j].class
		}
		return out[i].name < out[j].name
	})
	return out
}
