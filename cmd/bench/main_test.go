package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestRecordStampsHost checks that a written record names the host and
// build it measured: CPU count, GOMAXPROCS, Go version and commit, under
// the JSON keys readers of BENCH_sched.json and BENCH_sim.json look for.
func TestRecordStampsHost(t *testing.T) {
	rec := newRecord("test record")
	rec.Benchmarks = []entry{{Name: "BenchmarkX", NsPerOp: 1}}
	out := filepath.Join(t.TempDir(), "rec.json")
	writeRecord(out, rec)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{
		"num_cpu":    float64(runtime.NumCPU()),
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
	if c, _ := got["commit"].(string); c == "" {
		t.Errorf("commit = %q, want a revision or \"unknown\"", got["commit"])
	}
}
