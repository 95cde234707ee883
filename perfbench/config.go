package main

import "time"

// The dataset is fixed: every run serves the same DBLP-shaped corpus,
// and only the request stream varies with the workload seed.
const (
	dataPublications = 10000 // ≈109k triples, ≈21 MB of live engine heap
	dataSeed         = 1
)

const (
	// openShare is the part of --seconds spent in the open-loop phase;
	// the rest is the closed-loop capacity phase.
	openShare = 0.75
	// latencyLimit is the benchmark's latency limit: an op slower than
	// this (timed from its due time in the open loop) counts as failed,
	// and does not count towards capacity_rps.
	latencyLimit = time.Second
	// setupRepeats is how many times a run sets the backend up; setup_s
	// is their median.
	setupRepeats = 7
	// batchTriples is the size of one ingest batch.
	batchTriples = 40
	// minP99Samples is the sample count below which no p99 is reported:
	// ten samples must lie beyond it.
	minP99Samples = 1000
)

// workload is one traffic mix. BENCHMARK.json says why each is there;
// this file alone holds its parameters. Each rate is a third to two
// fifths of the workload's capacity_rps on the baseline machine, not
// half: at half, a slow spell of the shared host
// filled the client connections, and the queue it left amplified the
// slowdown into the medians (README.md, "Workloads").
type workload struct {
	Name    string
	Backend string  // "engine", "cluster" (2 shards, 1 replica) or "live"
	Rate    float64 // offered ops/s in the open-loop phase

	ZipfPool      int       // session_hit: query pool size (< the 1024-entry search cache)
	WriteShare    float64   // ingest_rw: share of ops that are ingest batches
	CheckpointsAt []float64 // ingest_rw: checkpoints at these shares of the open-loop phase
	EpochMaxDelta int       // ingest_rw: swap threshold in triples
}

var workloads = []workload{
	{Name: "search_miss", Backend: "engine", Rate: 55},
	{Name: "session_hit", Backend: "engine", Rate: 700, ZipfPool: 512},
	{
		Name: "ingest_rw", Backend: "live", Rate: 70, WriteShare: 0.3,
		CheckpointsAt: []float64{0.35, 0.7}, EpochMaxDelta: 3000,
	},
	{Name: "cluster_miss", Backend: "cluster", Rate: 55},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
