package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenWorkloadCache pins the -workload-cache resolution all three
// commands share: the "off" spellings disable the cache, a directory opens
// there, and a directory that cannot be opened degrades to no cache.
func TestOpenWorkloadCache(t *testing.T) {
	for _, off := range []string{"off", "false", "no"} {
		if wc := (&Base{WorkloadCache: off}).OpenWorkloadCache(); wc != nil {
			t.Errorf("-workload-cache %s opened %s", off, wc.Dir())
		}
	}
	dir := t.TempDir()
	wc := (&Base{WorkloadCache: dir}).OpenWorkloadCache()
	if wc == nil || wc.Dir() != dir {
		t.Fatalf("-workload-cache %s opened %v", dir, wc)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if wc := (&Base{WorkloadCache: filepath.Join(file, "sub")}).OpenWorkloadCache(); wc != nil {
		t.Errorf("an unopenable directory opened %s", wc.Dir())
	}
}
