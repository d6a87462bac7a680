package main

import (
	"fmt"
	"testing"
	"time"
)

// line renders a progress line exactly as the evaluator's WithProgress
// observer does.
func line(n int, label string, d time.Duration) string {
	return fmt.Sprintf("[%4d] done %-48s %9s\n", n, label, d.Round(time.Millisecond))
}

func TestParseProgressLine(t *testing.T) {
	for _, tc := range []struct {
		label, platform string
		d               time.Duration
	}{
		{"fm-seeding/Pt/beacon-d/+data packing", "beacon-d", 53 * time.Millisecond},
		{"pre-alignment/Nf/beacon-s/+placement/mapping", "beacon-s", 1234 * time.Millisecond},
		{"kmer-counting/Hs/beacon-s/+single-pass KMC", "beacon-s", 2 * time.Second},
		{"hash-seeding/Am/ddr-ndp/baseline", "ddr-ndp", 0},
		{"fm-seeding/Pg/beacon-d/+multi-chip coalescing with a label past the pad", "beacon-d", 9 * time.Millisecond},
	} {
		got, err := parseProgressLine(line(7, tc.label, tc.d))
		if err != nil {
			t.Errorf("%s: %v", tc.label, err)
			continue
		}
		if got.Label != tc.label || got.Platform != tc.platform || got.Dur != tc.d || got.Failed {
			t.Errorf("parse(%q) = %+v, want label %q platform %q dur %v",
				tc.label, got, tc.label, tc.platform, tc.d)
		}
	}
}

func TestParseProgressLineFailAndGarbage(t *testing.T) {
	fail := fmt.Sprintf("[%4d] FAIL %-48s %9s  %v\n", 3, "fm-seeding/Pt/beacon-s/final",
		5*time.Millisecond, "core: boom with spaces")
	j, err := parseProgressLine(fail)
	if err != nil || !j.Failed {
		t.Errorf("FAIL line = %+v, %v; want a failed job", j, err)
	}
	for _, bad := range []string{"", "done x 5ms", "[   1] done fm-seeding/Pt/beacon-d/+data packing", "[   1] skip x 5ms"} {
		if j, err := parseProgressLine(bad); err == nil {
			t.Errorf("parse(%q) = %+v, want error", bad, j)
		}
	}
}

func TestProgressLogSplitsWrites(t *testing.T) {
	l := newProgressLog()
	text := line(1, "fm-seeding/Pt/beacon-d/+data packing", 53*time.Millisecond) +
		line(2, "fm-seeding/Pt/cpu/cpu-ref", time.Second)
	for _, chunk := range []string{text[:10], text[10:70], text[70:]} {
		if _, err := l.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.errs) != 0 || len(l.jobs) != 2 {
		t.Fatalf("jobs %+v errs %v, want 2 jobs", l.jobs, l.errs)
	}
	if l.jobs[1].Platform != "cpu" || l.jobs[1].Dur != time.Second {
		t.Errorf("second job = %+v", l.jobs[1])
	}
}
