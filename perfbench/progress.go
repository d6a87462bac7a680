package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"
)

// progressJob is one line of an evaluation's Progress log: a finished
// runner job.
type progressJob struct {
	Label    string
	Platform string        // third component of app/species/platform/step
	Dur      time.Duration // how long the job held its pool slot
	At       time.Duration // when its line arrived, since the log started
	Failed   bool
}

// parseProgressLine reads one line of the form the evaluator writes,
//
//	[  17] done fm-seeding/Pt/beacon-d/+data packing        53ms
//	[  18] FAIL <label> <duration>  <error>
//
// Labels hold spaces ("+data packing"), so the duration of a done line is
// its last field and the label is everything between the status word and
// it. A FAIL line ends with a free-form error, so only its status counts.
func parseProgressLine(line string) (progressJob, error) {
	line = strings.TrimSpace(line)
	_, rest, ok := strings.Cut(line, "] ")
	if !ok || !strings.HasPrefix(line, "[") {
		return progressJob{}, fmt.Errorf("progress line %q: no [n] prefix", line)
	}
	status, rest, _ := strings.Cut(rest, " ")
	switch status {
	case "FAIL":
		return progressJob{Label: strings.TrimSpace(rest), Failed: true}, nil
	case "done":
	default:
		return progressJob{}, fmt.Errorf("progress line %q: unknown status %q", line, status)
	}
	i := strings.LastIndexAny(rest, " \t")
	if i < 0 {
		return progressJob{}, fmt.Errorf("progress line %q: no duration", line)
	}
	d, err := time.ParseDuration(rest[i+1:])
	if err != nil {
		return progressJob{}, fmt.Errorf("progress line %q: %w", line, err)
	}
	j := progressJob{Label: strings.TrimSpace(rest[:i]), Dur: d}
	if parts := strings.SplitN(j.Label, "/", 4); len(parts) == 4 {
		j.Platform = parts[2]
	}
	return j, nil
}

// progressLog is an EvalOptions.Progress writer that parses each line as
// it arrives and stamps it with its arrival time, which is when the job's
// result became available.
type progressLog struct {
	start time.Time

	mu      sync.Mutex
	partial []byte
	jobs    []progressJob
	errs    []error
}

func newProgressLog() *progressLog { return &progressLog{start: time.Now()} }

func (l *progressLog) Write(p []byte) (int, error) {
	at := time.Since(l.start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		j, err := parseProgressLine(string(l.partial[:i]))
		l.partial = l.partial[i+1:]
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		j.At = at
		l.jobs = append(l.jobs, j)
	}
	return len(p), nil
}
