package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"graft/internal/dfs"
)

// DFSBench is one workload's row of the DFS data-path experiment
// behind `graft-bench -dfs`. Two cells feed it:
//
//   - serial: the seed-era data path (dfs.Cluster.SetSerialDataPath),
//     where every replica put of every block happens sequentially
//     under the global namenode lock and Open copies whole files into
//     memory before returning,
//   - parallel: the pipelined path, where replica puts fan out
//     concurrently per block with the namenode lock held only for
//     allocation and commit, and reads stream block by block with
//     background read-ahead and replica selection rotating across
//     live nodes.
//
// Both cells run against clusters with the same simulated per-replica
// transfer cost (DFSBenchNodeDelay, charged under a per-node device
// mutex so transfers to one node queue while other nodes proceed) —
// without it the comparison degenerates into racing map inserts, when
// the data path's actual job is to keep replica round trips off each
// other's critical paths: the serial cell pays every transfer of every
// writer back to back behind one lock, the parallel cell overlaps
// them across nodes.
type DFSBench struct {
	Workload string `json:"workload"`
	Reps     int    `json:"reps"`
	// Cluster geometry of both cells.
	Nodes       int `json:"nodes"`
	Replication int `json:"replication"`
	BlockSize   int `json:"block_size"`
	// Workload shape: Writers goroutines each moving Files files of
	// BlocksPerFile blocks.
	Writers       int `json:"writers"`
	Files         int `json:"files"`
	BlocksPerFile int `json:"blocks_per_file"`
	// NodeDelayNanos is the simulated per-replica-operation transfer
	// cost both cells paid.
	NodeDelayNanos int64 `json:"node_delay_ns"`
	// SerialNanos / ParallelNanos are the fastest-repetition times of
	// the two cells.
	SerialNanos   int64 `json:"serial_ns"`
	ParallelNanos int64 `json:"parallel_ns"`
	// Speedup is SerialNanos/ParallelNanos: >1 means the pipelined
	// path beat the seed path.
	Speedup float64 `json:"speedup"`
	// Counters from the parallel cell's cluster.
	BytesWritten int64 `json:"bytes_written"`
	BytesRead    int64 `json:"bytes_read"`
	// Prefetches is how many streamed blocks the read-ahead had already
	// fetched when the consumer asked (parallel cell only; the serial
	// path has no read-ahead).
	Prefetches int64 `json:"prefetches"`
}

// DFS benchmark geometry. The delay is the order of an intra-rack
// round trip; the block count is small enough for CI but large enough
// that every file is multi-block and every writer places blocks
// concurrently with its siblings.
const (
	DFSBenchNodes         = 6
	DFSBenchReplication   = 3
	DFSBenchBlockSize     = 4 << 10
	DFSBenchWriters       = 4
	DFSBenchFilesPerPath  = 3 // files per writer
	DFSBenchBlocksPerFile = 4
	DFSBenchNodeDelay     = 200 * time.Microsecond
	// DFSBenchReplayCost models the per-block work a trace reader does
	// with the bytes it just streamed (decode, filter, replay). It is
	// what the read-ahead overlaps with: while the consumer chews on
	// block k, the fetcher's replica round trip for block k+1 is in
	// flight. The serial cell pays the same cost, but only after its
	// eager Open has already paid for every round trip back to back.
	DFSBenchReplayCost = 250 * time.Microsecond
)

// dfsBenchCluster builds one cell's cluster with the benchmark
// geometry and transfer cost.
func dfsBenchCluster(serial bool) *dfs.Cluster {
	c := dfs.NewCluster(DFSBenchNodes, DFSBenchReplication, DFSBenchBlockSize)
	c.SetSerialDataPath(serial)
	c.SetNodeDelay(DFSBenchNodeDelay)
	return c
}

// dfsBenchBody fills a deterministic pseudo-random file body: payload
// the block checksums actually have to chew on, unique per file so a
// misrouted read cannot pass the verification below.
func dfsBenchBody(seed int64, file int) []byte {
	body := make([]byte, DFSBenchBlocksPerFile*DFSBenchBlockSize)
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(file)
	for i := range body {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		body[i] = byte(x)
	}
	return body
}

// dfsWriteWorkload times Writers concurrent goroutines each writing
// its files through the cluster's write path — the shape of trace-sink
// drainers committing segments at a barrier.
func dfsWriteWorkload(c *dfs.Cluster, seed int64) (time.Duration, error) {
	runtime.GC()
	errs := make([]error, DFSBenchWriters)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < DFSBenchWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < DFSBenchFilesPerPath; f++ {
				file := w*DFSBenchFilesPerPath + f
				path := fmt.Sprintf("bench/seg-%02d", file)
				if err := dfs.WriteFile(c, path, dfsBenchBody(seed, file)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// dfsReadWorkload times Writers concurrent goroutines each streaming
// back its files and verifying the payload — the shape of trace
// readers replaying a superstep range.
func dfsReadWorkload(c *dfs.Cluster, seed int64) (time.Duration, error) {
	runtime.GC()
	errs := make([]error, DFSBenchWriters)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < DFSBenchWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, DFSBenchBlockSize)
			for f := 0; f < DFSBenchFilesPerPath; f++ {
				file := w*DFSBenchFilesPerPath + f
				path := fmt.Sprintf("bench/seg-%02d", file)
				want := dfsBenchBody(seed, file)
				r, err := c.Open(path)
				if err != nil {
					errs[w] = err
					return
				}
				off := 0
				for {
					n, err := io.ReadFull(r, buf)
					if n > 0 {
						if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
							errs[w] = fmt.Errorf("%s: wrong bytes at offset %d", path, off)
							r.Close()
							return
						}
						off += n
						time.Sleep(DFSBenchReplayCost) // replay the block
					}
					if err == io.EOF || err == io.ErrUnexpectedEOF {
						break
					}
					if err != nil {
						errs[w] = err
						r.Close()
						return
					}
				}
				r.Close()
				if off != len(want) {
					errs[w] = fmt.Errorf("%s: read %d of %d bytes", path, off, len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// dfsBenchWorkloads are the two measured shapes: the concurrent write
// fan-in and the concurrent streaming read-back. The read workload's
// setup (writing the files) is untimed.
var dfsBenchWorkloads = []struct {
	name  string
	setup func(c *dfs.Cluster, seed int64) error
	run   func(c *dfs.Cluster, seed int64) (time.Duration, error)
}{
	{
		name: "sink-drain",
		run:  dfsWriteWorkload,
	},
	{
		name: "trace-scan",
		setup: func(c *dfs.Cluster, seed int64) error {
			_, err := dfsWriteWorkload(c, seed)
			return err
		},
		run: dfsReadWorkload,
	},
}

// RunDFSBench measures the DFS data path: for each workload it
// compares the seed-era serial path against the pipelined streaming
// path on freshly built clusters with identical geometry and simulated
// transfer costs. Serial and parallel repetitions are interleaved so
// machine-load drift hits both cells equally, with the order inside
// each repetition alternating; each cell is summarized by its fastest
// repetition (noise on a shared host is strictly additive).
func RunDFSBench(opts Options) ([]DFSBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	var out []DFSBench
	for _, wl := range dfsBenchWorkloads {
		cell := func(serial bool, rep int) (time.Duration, dfs.ClusterStats, error) {
			c := dfsBenchCluster(serial)
			seed := opts.Seed + int64(rep)
			if wl.setup != nil {
				if err := wl.setup(c, seed); err != nil {
					return 0, dfs.ClusterStats{}, err
				}
			}
			elapsed, err := wl.run(c, seed)
			return elapsed, c.Stats(), err
		}
		var serialTimes, parallelTimes []time.Duration
		var parStats dfs.ClusterStats
		for rep := -1; rep < opts.Reps; rep++ {
			var sT, pT time.Duration
			var pS dfs.ClusterStats
			runSerial := func() (err error) {
				sT, _, err = cell(true, rep)
				return err
			}
			runParallel := func() (err error) {
				pT, pS, err = cell(false, rep)
				return err
			}
			first, second := runSerial, runParallel
			if rep%2 != 0 {
				first, second = runParallel, runSerial
			}
			if err := first(); err != nil {
				return nil, fmt.Errorf("harness: dfs %s: %w", wl.name, err)
			}
			if err := second(); err != nil {
				return nil, fmt.Errorf("harness: dfs %s: %w", wl.name, err)
			}
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "  %s rep %2d: serial=%v parallel=%v\n", wl.name, rep, sT, pT)
			}
			if rep < 0 {
				continue // warmup
			}
			serialTimes = append(serialTimes, sT)
			parallelTimes = append(parallelTimes, pT)
			parStats = pS
		}
		serialBest, parallelBest := Fastest(serialTimes), Fastest(parallelTimes)
		row := DFSBench{
			Workload:       wl.name,
			Reps:           opts.Reps,
			Nodes:          DFSBenchNodes,
			Replication:    DFSBenchReplication,
			BlockSize:      DFSBenchBlockSize,
			Writers:        DFSBenchWriters,
			Files:          DFSBenchWriters * DFSBenchFilesPerPath,
			BlocksPerFile:  DFSBenchBlocksPerFile,
			NodeDelayNanos: DFSBenchNodeDelay.Nanoseconds(),
			SerialNanos:    serialBest.Nanoseconds(),
			ParallelNanos:  parallelBest.Nanoseconds(),
			BytesWritten:   parStats.BytesWritten,
			BytesRead:      parStats.BytesRead,
			Prefetches:     parStats.Prefetches,
		}
		if parallelBest > 0 {
			row.Speedup = float64(serialBest) / float64(parallelBest)
		}
		out = append(out, row)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-10s serial=%8.2fms parallel=%8.2fms speedup=%.2fx\n",
				wl.name, float64(serialBest.Microseconds())/1000,
				float64(parallelBest.Microseconds())/1000, row.Speedup)
		}
	}
	return out, nil
}

// PrintDFSBench renders the DFS data-path rows as a table.
func PrintDFSBench(w io.Writer, rows []DFSBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tserial\tparallel\tspeedup\tfiles\tblocks/file\twritten\tread\tprefetches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2fx\t%d\t%d\t%dB\t%dB\t%d\n",
			r.Workload,
			time.Duration(r.SerialNanos).Round(time.Microsecond),
			time.Duration(r.ParallelNanos).Round(time.Microsecond),
			r.Speedup, r.Files, r.BlocksPerFile,
			r.BytesWritten, r.BytesRead, r.Prefetches)
	}
	tw.Flush()
}

// WriteDFSBenchJSON writes the rows as indented JSON (the
// BENCH_dfs.json artifact).
func WriteDFSBenchJSON(w io.Writer, rows []DFSBench) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CheckDFSBench verifies the acceptance claim: the pipelined streaming
// path is strictly faster than the seed serial path on every workload,
// and the streaming read-back actually exercised the read-ahead.
func CheckDFSBench(rows []DFSBench) []string {
	var problems []string
	for _, r := range rows {
		if r.ParallelNanos >= r.SerialNanos {
			problems = append(problems, fmt.Sprintf(
				"%s: parallel path (%v) not faster than seed serial path (%v)",
				r.Workload, time.Duration(r.ParallelNanos), time.Duration(r.SerialNanos)))
		}
		if r.Workload == "trace-scan" && r.Prefetches == 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: streaming read-back never hit the read-ahead", r.Workload))
		}
	}
	return problems
}
