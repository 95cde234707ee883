package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// provenance records what a result was measured on.
type provenance struct {
	Commit      string  `json:"commit"`
	Dirty       string  `json:"dirty"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	DataPubs    int     `json:"dataset_publications"`
	DataSeed    int64   `json:"dataset_seed"`
	Seed        int64   `json:"workload_seed"`
	Backend     string  `json:"backend"`
	OfferedRate float64 `json:"offered_ops_per_s"`
	Fsync       string  `json:"fsync,omitempty"`
	TempFS      string  `json:"temp_fs"`
	// StealRatio is the share of CPU time the hypervisor took from this
	// machine during the measured phases (from /proc/stat): on a shared
	// host, the main cause of run-to-run drift.
	StealRatio float64 `json:"steal_ratio"`
}

func collectProvenance(w workload, seed int64, tmp string) provenance {
	p := provenance{
		Commit: "unknown", Dirty: "unknown",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataPubs: dataPublications, DataSeed: dataSeed, Seed: seed,
		Backend: w.Backend, OfferedRate: w.Rate, TempFS: filesystemOf(tmp),
	}
	if w.Backend == "live" {
		p.Fsync = "always"
	}
	// The build stamps the commit when it is made inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p
}

// cpuTimes reads the machine's cumulative steal and total CPU ticks.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type of the mount holding dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, fs = len(mnt), fields[2]
		}
	}
	return fs
}
