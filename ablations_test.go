package beacon

import (
	"context"
	"strings"
	"testing"

	"beacon/internal/obs"
)

// TestAblationsObserved pins that every sweep point is an ordinary
// evaluator job: with a collection attached, each of the 26 points
// registers one Obs under its app/species/platform/step label, and the
// rendered tables equal an unobserved run.
func TestAblationsObserved(t *testing.T) {
	t.Parallel()
	plain, err := NewEvaluator(tinyRC(), EvalOptions{}).AllAblations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collection{TraceCap: 64}
	observed, err := NewEvaluator(tinyRC(), EvalOptions{Obs: col}).AllAblations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if observed != plain {
		t.Errorf("observability changed the ablation tables:\n%s\nvs\n%s", observed, plain)
	}
	jobs := col.Dump().Jobs
	if len(jobs) != 26 {
		t.Fatalf("collection has %d jobs, want one per sweep point (26)", len(jobs))
	}
	labels := map[string]bool{}
	for _, j := range jobs {
		if labels[j.Label] {
			t.Errorf("duplicate job label %q", j.Label)
		}
		labels[j.Label] = true
		if len(j.Metrics.Snapshots) == 0 {
			t.Errorf("%s: no metrics recorded", j.Label)
		}
	}
	for _, want := range []string{
		"fm-seeding/Pt/beacon-d/group=1",
		"fm-seeding/Pt/beacon-d/cxlg=4",
		"fm-seeding/Pt/beacon-s/x16 (128.0 GB/s)",
		"fm-seeding/Pt/beacon-s/inflight=4096",
		"fm-seeding/Pt/beacon-d/switches=8",
		"hash-seeding/Pt/beacon-d/closed-page",
	} {
		if !labels[want] {
			t.Errorf("no job labelled %q", want)
		}
	}
}

// TestAblationsRecordFaults pins that sweep points run under the
// evaluator's fault profile: they inject faults, which change the tables
// and reach the per-platform FaultSummary.
func TestAblationsRecordFaults(t *testing.T) {
	t.Parallel()
	plain, err := NewEvaluator(tinyRC(), EvalOptions{}).AblationCoalesceGroup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(tinyRC(), EvalOptions{Faults: HeavyFaultProfile(), FaultSeed: 3})
	faulty, err := e.AblationCoalesceGroup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AblationInFlight(context.Background()); err != nil {
		t.Fatal(err)
	}
	if faulty.String() == plain.String() {
		t.Error("the heavy fault profile left the coalescing sweep unchanged")
	}
	sum := e.FaultSummary()
	if sum == nil || len(sum.Rows) != 2 {
		t.Fatalf("fault summary = %+v, want a BEACON-D and a BEACON-S row", sum)
	}
	for _, row := range sum.Rows {
		if row.Stats.Total() == 0 {
			t.Errorf("%v: sweep jobs contributed no faults", row.Kind)
		}
	}
}

func TestAblationCoalesceGroup(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationCoalesceGroup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Lock-step (group 16) must overfetch ~2x for 32 B objects; group 8 must
	// fetch with no waste.
	byLabel := map[string]AblationPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}
	if byLabel["group=16"].Extra < 1.5 {
		t.Errorf("lock-step overfetch = %.2f, want >= 1.5", byLabel["group=16"].Extra)
	}
	if byLabel["group=8"].Extra > 1.1 {
		t.Errorf("group-8 overfetch = %.2f, want ~1.0", byLabel["group=8"].Extra)
	}
}

func TestAblationLinkBandwidth(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationLinkBandwidth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Wider links never hurt BEACON-S.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Cycles > res.Points[i-1].Cycles*21/20 {
			t.Errorf("bandwidth step %s regressed: %d -> %d",
				res.Points[i].Label, res.Points[i-1].Cycles, res.Points[i].Cycles)
		}
	}
}

func TestAblationInFlight(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationInFlight(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Deeper queues must not hurt, and the shallowest queue must be worst.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Cycles > first.Cycles {
		t.Errorf("deep queue (%d cycles) slower than shallow (%d)", last.Cycles, first.Cycles)
	}
}

func TestAblationPoolScale(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationPoolScale(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Scaling out must speed up the fixed workload.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if float64(first.Cycles)/float64(last.Cycles) < 1.5 {
		t.Errorf("8-switch pool only %.2fx over 1 switch",
			float64(first.Cycles)/float64(last.Cycles))
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AllAblations(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAblationRowPolicy(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationRowPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if strings.Contains(p.Label, "closed") && p.Extra != 0 {
			t.Errorf("%s: closed page recorded row hits (%.3f)", p.Label, p.Extra)
		}
	}
}
