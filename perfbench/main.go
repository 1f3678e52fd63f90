// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the simulator's public packages, checks the outputs,
// and prints the metrics as the last line of standard output:
//
//	specmix-sim        sim.Runner over SPEC mix 2 on an 8-core SecDir machine
//	leaderboard-sweep  leakage.RunLeaderboard at the golden parameters
//	serve-fleet        a secdir-serve coordinator with a disk store and two
//	                   fleet workers on loopback, driven by one closed-loop
//	                   client
//
// With -trace 0 it reports the end-to-end metrics of the named workload;
// with -trace 1 it reports the per-layer metrics of every layer, taken by
// timing calls into each layer's public functions from outside. The layer
// map lives in spec.json next to this file. Run it from the repository root:
//
//	bash perfbench/run.sh --workload specmix-sim --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// specJSON documents the workloads and layer map and records the reference
// values the output checks compare against.
//
//go:embed spec.json
var specJSON []byte

// report collects one run's metrics, operation counts and failed checks.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a human-readable line; only the final JSON line is parsed.
func (r *report) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

// checkErr records err as a failed check.
func (r *report) checkErr(err error) {
	if err != nil {
		r.check(false, "%v", err)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(seed int64, budget time.Duration, r *report) error{
	"specmix-sim":       runSpecmix,
	"leaderboard-sweep": runSweep,
	"serve-fleet":       runServe,
}

func main() {
	workload := flag.String("workload", "", "specmix-sim, leaderboard-sweep or serve-fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced, *cpuprofile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(workload string, seed int64, seconds, traced int, cpuprofile string) error {
	runWorkload, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(goldenCSV); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	printHost(seed)

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			}
		}()
	}

	runStart := stampNow()
	rep := newReport()
	var err error
	if traced == 1 {
		err = runTraced(seed, rep)
	} else {
		err = runWorkload(seed, time.Duration(seconds)*time.Second, rep)
	}
	if err != nil {
		return err
	}
	// The time the hypervisor gave this machine's CPUs to others: the usual
	// cause of a run that is slow across the board.
	net, wall := runStart.since()
	rep.note("host cpu steal %.1f%% of the run's wall time, per CPU", 100*(1-net.Seconds()/wall.Seconds()))
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("%-34s %14.6g %s", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	fmt.Println(string(out))
	if len(rep.problems) > 0 {
		return errors.New(strings.Join(rep.problems, "; "))
	}
	return nil
}

// runTraced measures every layer: each pass drives the workload that
// exercises its layers, over a fixed amount of seeded work, so per-layer
// counts repeat exactly for a given seed whatever the host's speed.
func runTraced(seed int64, rep *report) error {
	if err := traceSpecmix(seed, rep); err != nil {
		return err
	}
	if err := traceSweep(seed, rep); err != nil {
		return err
	}
	return traceServe(seed, rep)
}

// printHost stamps the run with the host identity and seed, so results from
// different hosts are never compared silently.
func printHost(seed int64) {
	host := struct {
		CPU        string `json:"cpu"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		PGO        string `json:"pgo"`
		Seed       int64  `json:"seed"`
	}{cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), "off", seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				host.PGO = s.Value
			}
		}
	}
	b, _ := json.Marshal(host) // plain strings and ints cannot fail to encode
	fmt.Printf("# host %s\n", b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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
