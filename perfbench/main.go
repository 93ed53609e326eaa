// Command perfbench is the repository benchmark. It runs one workload
// per process and prints, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	perfbench --workload fleet-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (events_per_s,
// cpu_ns_per_event, peak_rss_mb, setup_s) on a worker pool of nproc
// workers; with --trace 1 it measures the per-layer metrics and prints
// the layer ledger. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
)

const defaultSeed = 1

// setupProbes is how many child processes measure setup_s; the median
// is reported. They run before the timed repetitions: a process spawn
// between repetitions was measured to slow the following ones by about
// 5%.
const setupProbes = 31

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the ledger")
	probe := flag.Bool("probe", false, "set up the workload, print \"ready\" and exit (measures setup_s)")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}

	// Setup: everything up to the first timed run. A --probe child stops
	// here, and the parent times it from exec.
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	want, err := recordedDigest(w.name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *probe {
		fmt.Println("ready")
		return 0
	}

	ctx := context.Background()
	workers := runtime.NumCPU()
	budget := time.Duration(*seconds) * time.Second
	mode := "end-to-end"
	if *trace == 1 {
		mode = "traced"
	}
	manifest := map[string]any{
		"go": runtime.Version(), "goarch": runtime.GOARCH, "cpu": cpuModel(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "workers": workers,
		"seed": *seed, "workload": w.name, "params": w.params, "mode": mode,
	}
	mj, _ := json.Marshal(manifest)
	fmt.Printf("# manifest %s\n", mj)
	if want == "" {
		fmt.Printf("# no recorded digest applies (recorded at seed %d); runs are checked against each other\n", defaultSeed)
	}

	var t tally
	r := newReport()
	if *trace == 0 {
		err = endToEnd(ctx, w, workers, budget, want, &t, r)
	} else {
		err = traced(ctx, w, workers, budget, want, &t, r)
	}
	for _, l := range r.lines {
		fmt.Println("#", l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		t.problem("%v", err)
	}
	for _, p := range t.problems {
		fmt.Println("# FAIL", p)
	}
	fmt.Printf("# fail_ratio = %g (%d of %d operations failed)\n", t.failRatio(), t.failed, t.attempted)
	for _, n := range r.names {
		fmt.Printf("# %s = %.6g %s\n", n, r.m[n].Value, r.m[n].Unit)
	}
	correct := len(t.problems) == 0 && t.failed == 0
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(t.attempted, 1), t.failed, r.m})
	fmt.Println(string(res))
	if !correct {
		return 1
	}
	return 0
}

// endToEnd measures the end-to-end metrics: setup_s from child
// processes, then the job repeated on the full pool for the budget,
// each run followed by the host reference. The raw medians are printed;
// the throughput metrics are the medians scaled to the reference host
// (see ref.go).
func endToEnd(ctx context.Context, w *job, workers int, budget time.Duration, want string, t *tally, r *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	setups := make([]float64, setupProbes)
	for i := range setups {
		if setups[i], err = probe(exe); err != nil {
			return err
		}
	}
	pool := &engine.Pool{Workers: workers}
	var rates, costs, rawRates, rawCosts, refs []float64
	var x rep
	for start := time.Now(); len(rates) < 3 || time.Since(start) < budget; {
		if x, err = timedRun(ctx, w, pool, want, t); err != nil {
			return err
		}
		if want == "" {
			want = x.digest
		}
		refWall, refCPU := reference(workers)
		rawRates = append(rawRates, x.eventsPerSec())
		rawCosts = append(rawCosts, x.cpuNsPerEvent())
		refs = append(refs, refCPU)
		rates = append(rates, x.eventsPerSec()*refWall/refNominalNs)
		costs = append(costs, x.cpuNsPerEvent()*refNominalNs/refCPU)
	}
	r.note("%d runs of %d events, digest %s", len(rates), x.events, x.digest)
	r.note("events_per_s = %.6g 1/s (raw median)", median(rawRates))
	r.note("cpu_ns_per_event = %.6g ns (raw median)", median(rawCosts))
	r.note("reference = %.4g CPU ns per step (median; %d ns on the reference host)", median(refs), refNominalNs)
	r.set("events_per_s_at_ref", median(rates), "1/s")
	r.set("cpu_ns_per_event_at_ref", median(costs), "ns")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("setup_s", median(setups), "s")
	return nil
}

// probe starts exe in --probe mode with this run's flags and returns
// the seconds from the start to its "ready".
func probe(exe string) (float64, error) {
	cmd := exec.Command(exe, append([]string{"--probe"}, os.Args[1:]...)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	if line != "ready\n" {
		return 0, fmt.Errorf("setup probe printed %q", line)
	}
	return d, nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
