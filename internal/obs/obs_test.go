package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestNilObs(t *testing.T) {
	var o *Obs
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil Obs accessors must return nil")
	}
	o.MaybeSample(100)
	o.Sample(100)
}

func TestMaybeSampleBoundaries(t *testing.T) {
	o := New("job")
	o.SampleEvery = 100
	o.Metrics.Counter("c").Inc()
	o.MaybeSample(5) // crosses boundary 0 -> snapshot, next = 100
	o.MaybeSample(50)
	o.MaybeSample(99)
	o.MaybeSample(100) // boundary
	o.MaybeSample(350) // clock jumped over 200 and 300: one snapshot only
	o.MaybeSample(360)
	snaps := o.Metrics.Snapshots()
	cycles := make([]int64, len(snaps))
	for i, s := range snaps {
		cycles[i] = s.Cycle
	}
	want := []int64{5, 100, 350}
	if len(cycles) != len(want) {
		t.Fatalf("snapshot cycles = %v, want %v", cycles, want)
	}
	for i := range want {
		if cycles[i] != want[i] {
			t.Fatalf("snapshot cycles = %v, want %v", cycles, want)
		}
	}
}

func TestMaybeSampleDisabled(t *testing.T) {
	o := New("job") // SampleEvery 0
	o.MaybeSample(100)
	o.MaybeSample(200)
	if len(o.Metrics.Snapshots()) != 0 {
		t.Fatal("SampleEvery 0 must skip periodic snapshots")
	}
	o.Sample(300) // forced end-of-run snapshot still works
	if len(o.Metrics.Snapshots()) != 1 {
		t.Fatal("forced Sample must snapshot")
	}
}

// TestSampleReleasesPolledCaptures pins that the end-of-run snapshot drops
// every polled function, so an Obs kept after its run (a daemon's finished
// job) no longer keeps alive the components its gauges and spans read.
// The frozen values still appear in later snapshots.
func TestSampleReleasesPolledCaptures(t *testing.T) {
	o := New("job")
	released := make(chan string, 2)
	func() {
		gauged := &[4]int64{7}
		runtime.SetFinalizer(gauged, func(*[4]int64) { released <- "gauge" })
		o.Metrics.Gauge("g", func() float64 { return float64(gauged[0]) })
		metered := &[4]int64{3}
		runtime.SetFinalizer(metered, func(*[4]int64) { released <- "span" })
		o.Accountant().Track(Meter{Class: ClassPE, Name: "pe0", Width: 1,
			Busy: func() int64 { return metered[0] }})
	}()
	o.Sample(100)

	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-released:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of 2 captured objects still reachable after the final Sample", got)
		}
	}
	o.Metrics.Snapshot(200)
	later := o.Metrics.Snapshots()[1].Values
	if later["g"] != 7 || later["util.pe.pe0.busy_cycles"] != 3 {
		t.Errorf("frozen values lost: %v", later)
	}
}

func TestCollectionSeedsSampleEvery(t *testing.T) {
	col := &Collection{SampleEvery: 42, TraceCap: 7}
	o := col.New("j")
	if o.SampleEvery != 42 {
		t.Fatalf("SampleEvery = %d, want 42", o.SampleEvery)
	}
	if col.Len() != 1 {
		t.Fatalf("len = %d, want 1", col.Len())
	}
}

func TestCollectionMetricsCSV(t *testing.T) {
	col := NewCollection()
	o := col.New("jobA")
	o.Metrics.Counter("ops").Add(4)
	o.Sample(10)
	var b strings.Builder
	if err := col.WriteMetricsCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "label,cycle,metric,value\n") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "jobA,10,ops,4\n") {
		t.Fatalf("missing row:\n%s", out)
	}
}

func TestHashConfigStability(t *testing.T) {
	type cfg struct{ A, B int }
	h1 := HashConfig(cfg{1, 2})
	h2 := HashConfig(cfg{1, 2})
	h3 := HashConfig(cfg{1, 3})
	if h1 != h2 {
		t.Fatalf("same config hashed differently: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatalf("different configs hashed identically: %s", h1)
	}
	if len(h1) != 16 {
		t.Fatalf("hash length = %d, want 16 hex chars", len(h1))
	}
}

func TestProvenanceHeader(t *testing.T) {
	p := NewProvenance(struct{ X int }{7}, 0xBEAC07)
	h := p.Header(0)
	if !strings.Contains(h, "seed: 0xBEAC07") {
		t.Fatalf("header missing seed:\n%s", h)
	}
	if !strings.Contains(h, p.ConfigHash) {
		t.Fatalf("header missing config hash:\n%s", h)
	}
	if strings.Contains(h, "wall:") {
		t.Fatalf("zero wall must omit the wall line:\n%s", h)
	}
	h = p.Header(1500 * time.Millisecond)
	if !strings.Contains(h, "wall:") {
		t.Fatalf("nonzero wall must include the wall line:\n%s", h)
	}
}

func TestBuildInfoString(t *testing.T) {
	s := ReadBuildInfo().String()
	if s == "" || !strings.Contains(s, "go") {
		t.Fatalf("build banner = %q", s)
	}
}
