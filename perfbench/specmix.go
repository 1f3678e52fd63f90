package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"secdir/internal/addr"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/directory"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// The specmix-sim workload is the paper's Fig 7 path: SPEC mix 2 on an
// 8-core SecDir machine, one engine built once and run slice after slice.
// Each sim.Runner.Run call simulates one slice of sliceAccesses per core on
// the same engine and generators, so a slice is the request whose latency
// is reported. Slices of about 0.1 s keep sub-millisecond host hiccups from
// dominating the tail while a run still holds well over 100 of them.
const (
	specmixMix    = 2
	specmixCores  = 8
	sliceAccesses = 16384
	// warmSlices run before latencies count, so caches and directories are
	// full; they still count towards throughput (warmup + measure).
	warmSlices = 2
	// minSlices keeps a short budget from reporting an empty distribution.
	minSlices = 20
	// replaySlices are re-simulated on a fresh runner as a determinism
	// check.
	replaySlices = 3
	// setupReps is how many times each workload repeats its set-up; the
	// median is reported.
	setupReps = 31
	// The traced pass is a fixed 48 slices of 4096 accesses per core
	// (1.57M accesses): shorter slices than the measured phase's, so each
	// layer gets enough per-slice samples for a median that shrugs off a
	// host hiccup landing in one of them.
	traceSlices        = 48
	traceSliceAccesses = 4096
)

// specmixRunner builds the machine and binds the seeded SPEC mix; each Run
// call simulates slice accesses per core.
func specmixRunner(seed int64, slice uint64, obs sim.Observer) (*sim.Runner, error) {
	w, err := trace.NewSpecMix(specmixMix, specmixCores, seed)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Options{
		Config:          config.SecDirConfig(specmixCores),
		Work:            w,
		MeasureAccesses: slice,
		Observer:        obs,
	})
}

func runSpecmix(seed int64, budget time.Duration, rep *report) error {
	mem := startMemSampler()
	defer mem.Stop()
	var r *sim.Runner
	resume := pauseGC()
	defer resume()
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		rr, err := specmixRunner(seed, sliceAccesses, nil)
		if err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
		r = rr
	}
	resume()

	var first []sim.Result
	var lat []time.Duration
	slices := 0
	start := stampNow()
	for slices < warmSlices+minSlices || time.Since(start.wall) < budget {
		t0 := stampNow()
		res := r.Run()
		d, _ := t0.since()
		if len(first) < replaySlices {
			first = append(first, res)
		}
		if slices >= warmSlices {
			lat = append(lat, d)
		}
		slices++
	}
	elapsed, wall := start.since()
	peak := mem.Stop()

	accesses := float64(slices * sliceAccesses * specmixCores)
	perSec := accesses / elapsed.Seconds()
	s := summarize(ms(lat))
	rep.attempted = slices
	rep.set("setup_s", "s", median(setups))
	rep.set("mem_peak_mb", "MB", peak)
	rep.set("work_per_s", "1/s", perSec)
	rep.set("latency_p50_ms", "ms", s.P50)
	rep.set("latency_p90_ms", "ms", s.P90)
	rep.note("specmix-sim: sim_maccess_per_s %.4f Maccess/s over %d slices of %d accesses in %.2fs net (%.4f in %.2fs wall)",
		perSec/1e6, slices, sliceAccesses*specmixCores, elapsed.Seconds(), accesses/wall.Seconds()/1e6, wall.Seconds())
	rep.note("specmix-sim: slice latency ms %v; setup n=%d", s, len(setups))

	// The engine must be coherent, the run must replay exactly from its
	// seed, and the fixed reference run must reproduce the recorded stats.
	rep.checkErr(r.Engine.CheckInvariants())
	again, err := specmixRunner(seed, sliceAccesses, nil)
	if err != nil {
		return err
	}
	for i, want := range first {
		rep.check(reflect.DeepEqual(again.Run(), want), "specmix-sim: slice %d does not replay from seed %d", i, seed)
	}
	return checkSpecmixReference(rep)
}

// specmixRef is the summary of the fixed reference simulation compared
// byte-for-byte against spec.json's specmix_reference.
type specmixRef struct {
	Seed      int64           `json:"seed"`
	Warmup    uint64          `json:"warmup"`
	Measure   uint64          `json:"measure"`
	TotalIPC  float64         `json:"total_ipc"`
	MaxCycles uint64          `json:"max_cycles"`
	MissEDTD  uint64          `json:"miss_edtd"`
	MissVD    uint64          `json:"miss_vd"`
	MissMem   uint64          `json:"miss_mem"`
	Dir       directory.Stats `json:"dir"`
}

// specmixReference runs SPEC mix 2 at seed 1 with a 50k warmup and 50k
// measured accesses per core, independent of the benchmark seed.
func specmixReference() (specmixRef, error) {
	ref := specmixRef{Seed: 1, Warmup: 50_000, Measure: 50_000}
	w, err := trace.NewSpecMix(specmixMix, specmixCores, ref.Seed)
	if err != nil {
		return ref, err
	}
	r, err := sim.New(sim.Options{
		Config:          config.SecDirConfig(specmixCores),
		Work:            w,
		WarmupAccesses:  ref.Warmup,
		MeasureAccesses: ref.Measure,
	})
	if err != nil {
		return ref, err
	}
	res := r.Run()
	ref.TotalIPC = res.TotalIPC()
	ref.MaxCycles = res.MaxCycles
	ref.MissEDTD, ref.MissVD, ref.MissMem = res.L2MissBreakdown()
	ref.Dir = res.Dir
	return ref, nil
}

func checkSpecmixReference(rep *report) error {
	ref, err := specmixReference()
	if err != nil {
		return err
	}
	got, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	var spec struct {
		Ref json.RawMessage `json:"specmix_reference"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, spec.Ref); err != nil {
		return fmt.Errorf("spec.json specmix_reference: %w", err)
	}
	rep.check(bytes.Equal(got, want.Bytes()), "specmix-sim: reference run gave %s, spec.json records %s", got, want.Bytes())
	return nil
}

// packOp squeezes one observed access into a word for the traced pass's
// capture buffer: line<<4 | core<<1 | write.
func packOp(core int, line addr.Line, write bool) uint64 {
	w := uint64(0)
	if write {
		w = 1
	}
	return uint64(line)<<4 | uint64(core)<<1 | w
}

func unpackOp(op uint64) (core int, line addr.Line, write bool) {
	return int(op>>1) & 7, addr.Line(op >> 4), op&1 == 1
}

// traceSpecmix splits a fixed traceSlices-long simulation into its layers.
// Run time comes from an untraced runner; the engine's share from replaying
// the access order an Observer captured on a second runner onto a fresh
// engine; the generators' share from a standalone pass over the same seeded
// streams. The sim loop's self time is what remains. The four measurements
// take turns one slice at a time, and each layer's figure is its median
// slice, so a host that speeds up, slows down or stalls during the pass
// does not skew the subtraction.
func traceSpecmix(seed int64, rep *report) error {
	plain, err := specmixRunner(seed, traceSliceAccesses, nil)
	if err != nil {
		return err
	}
	perSlice := traceSliceAccesses * specmixCores
	ops := make([]uint64, 0, perSlice)
	traced, err := specmixRunner(seed, traceSliceAccesses, func(core int, _ uint64, line addr.Line, write bool, _ coherence.AccessResult) {
		ops = append(ops, packOp(core, line, write))
	})
	if err != nil {
		return err
	}
	e, err := coherence.NewEngine(config.SecDirConfig(specmixCores))
	if err != nil {
		return err
	}
	w, err := trace.NewSpecMix(specmixMix, specmixCores, seed)
	if err != nil {
		return err
	}
	buf := make([]trace.Access, traceSliceAccesses)

	var runs, observed, accesses, gens []time.Duration
	var mallocs uint64
	var m0, m1 runtime.MemStats
	n := 0
	for k := 0; k < traceSlices; k++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		plain.Run()
		runs = append(runs, time.Since(t0))
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs

		ops = ops[:0]
		t1 := time.Now()
		traced.Run()
		observed = append(observed, time.Since(t1))
		n += len(ops)

		t2 := time.Now()
		for _, op := range ops {
			e.Access(unpackOp(op))
		}
		accesses = append(accesses, time.Since(t2))

		t3 := time.Now()
		for _, g := range w.Gens {
			for i := range buf {
				buf[i] = g.Next()
			}
		}
		gens = append(gens, time.Since(t3))
	}
	rep.check(n == traceSlices*perSlice, "specmix-sim: observer saw %d accesses, want %d", n, traceSlices*perSlice)
	rep.check(reflect.DeepEqual(plain.Engine.Stats(), traced.Engine.Stats()) &&
		plain.Engine.DirStats() == traced.Engine.DirStats(),
		"specmix-sim: the observed run simulated a different machine state than the plain run")
	rep.check(reflect.DeepEqual(e.Stats(), traced.Engine.Stats()) && e.DirStats() == traced.Engine.DirStats(),
		"specmix-sim: engine replay of the captured order does not reproduce the sim run's Engine.Stats/DirStats")

	runTime, accessTime, genTime := medianDuration(runs), medianDuration(accesses), medianDuration(gens)
	loop, err := selfTime(runTime, accessTime, genTime)
	if err != nil {
		return fmt.Errorf("specmix-sim: sim loop self time: %w", err)
	}
	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(perSlice) }
	perK := func(c uint64) float64 { return float64(c) * 1000 / float64(n) }
	var l2, victims uint64
	for _, cs := range e.Stats().Core {
		l2 += cs.L2Misses()
		victims += cs.ConflictInvalidations
	}
	ds := e.DirStats()
	rep.attempted += traceSlices
	rep.set("trace.gen_ns_per_access", "ns", perAccess(genTime))
	rep.set("coherence.access_ns", "ns", perAccess(accessTime))
	rep.set("sim.loop_ns_per_access", "ns", perAccess(loop))
	rep.set("sim.allocs_per_kaccess", "count", perK(mallocs))
	rep.set("coherence.l2_misses_per_kaccess", "count", perK(l2))
	rep.set("directory.vd_hits_per_kaccess", "count", perK(ds.VDHits))
	rep.set("directory.td_to_vd_per_kaccess", "count", perK(ds.TDToVD))
	rep.set("directory.vd_lookups_per_kaccess", "count", perK(ds.VDLookups))
	rep.set("coherence.inclusion_victims", "count", float64(victims))
	obsTime := medianDuration(observed)
	rep.set("specmix.trace_overhead_pct", "%", 100*(obsTime.Seconds()-runTime.Seconds())/runTime.Seconds())
	rep.note("specmix-sim traced: %d accesses; median slice: run %v = gen %v + engine %v + loop %v; observed run %v",
		n, runTime, genTime, accessTime, loop, obsTime)
	return nil
}
