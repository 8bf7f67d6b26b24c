package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host identifies where a result was measured. Two results compare
// only when everything but Commit matches.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit names the measured source: a SHA-256 over the Go sources
	// and module files of the tree, because a benchmark checkout need
	// not be a git repository.
	Commit string `json:"commit"`
}

func (h host) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
}

// sameMachine reports whether two stamps describe the same measuring
// host; the commit is what a comparison is meant to vary.
func (h host) sameMachine(o host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func stampHost(root string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     treeDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping hidden directories (build output,
// VCS metadata).
func treeDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain prints two result records side by side. It refuses (exit
// 2) when the records come from different hosts or different workload
// settings, because their numbers are then not comparable.
func compareMain(pathA, pathB string) int {
	var recs [2]record
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	if !a.Host.sameMachine(b.Host) {
		fmt.Fprintf(os.Stderr, "compare: refusing, host stamps differ:\n  A: %s\n  B: %s\n", a.Host, b.Host)
		return 2
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Traced != b.Traced {
		fmt.Fprintf(os.Stderr, "compare: refusing, runs differ in workload, length or tracing\n")
		return 2
	}
	fmt.Printf("workload %s, host %s\n  A: %s seed %d\n  B: %s seed %d\n",
		a.Workload, a.Host, a.Host.Commit, a.Seed, b.Host.Commit, b.Seed)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := "n/a"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", mb.Value/ma.Value)
		}
		fmt.Printf("  %-38s %14.6g %14.6g %-6s B/A %s\n", n, ma.Value, mb.Value, ma.Unit, ratio)
	}
	return 0
}
