package coherence

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/directory"
)

// parkEntryInVD drives a line held by the victim core into its Victim
// Directory by filling the shared ED/TD set with conflicting single-sharer
// lines from other cores. It returns the engine once the entry is VD-resident.
func parkEntryInVD(t *testing.T, cfg config.Config, victim int, line addr.Line) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Access(victim, line, false)
	m := e.Mapper()
	slice, set := m.Slice(line), m.Set(line)
	filler := 0
	for cand := addr.Line(0); filler < 200; cand++ {
		if cand == line || m.Slice(cand) != slice || m.Set(cand) != set {
			continue
		}
		filler++
		e.Access(1+filler%(cfg.Cores-1), cand, false)
		if _, w, _ := e.Slice(slice).Find(line); w == directory.WhereVD {
			if !e.L2Contains(victim, line) {
				t.Fatal("victim lost its line while parking")
			}
			return e
		}
	}
	t.Fatal("could not park the victim's entry in its VD")
	return nil
}

// remoteReadLatency measures the latency core 1 sees reading a line that
// core 0 holds (forwarded through the directory).
func remoteReadLatency(e *Engine, line addr.Line) int {
	return e.Access(1, line, false).Latency
}

// TestTimingMitigation verifies §6: without mitigation, a coherence
// transaction whose entry sits in a VD is slower than one whose entry sits in
// the ED/TD; with mitigation the two are indistinguishable.
func TestTimingMitigation(t *testing.T) {
	line := addr.Line(0x41200)

	measure := func(mit config.TimingMitigation) (edLat, vdLat int) {
		cfg := config.SecDirConfig(8)
		cfg.Mitigation = mit
		// ED/TD-resident entry: fresh machine, core 0 fetches, core 1 reads.
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Access(0, line, false)
		edLat = remoteReadLatency(e, line)

		// VD-resident entry: park, then read from another core.
		e2 := parkEntryInVD(t, cfg, 0, line)
		vdLat = remoteReadLatency(e2, line)
		return edLat, vdLat
	}

	edOff, vdOff := measure(config.MitigationOff)
	if vdOff <= edOff {
		t.Fatalf("unmitigated: VD-path latency %d not above ED-path %d (no channel to mitigate?)", vdOff, edOff)
	}
	for _, mit := range []config.TimingMitigation{config.MitigationNaive, config.MitigationSelective} {
		ed, vd := measure(mit)
		if ed != vd {
			t.Errorf("%v: ED-path %d != VD-path %d — the timing channel is open", mit, ed, vd)
		}
	}
}

// TestSelectiveMitigationSparesLocalMisses checks that the selective variant
// does not slow transactions that involve no other core (plain memory
// fetches), while the naive variant slows those too.
func TestSelectiveMitigationSparesLocalMisses(t *testing.T) {
	latency := func(mit config.TimingMitigation) int {
		cfg := config.SecDirConfig(8)
		cfg.Mitigation = mit
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A second fetch of an LLC-resident, sharer-free line is an
		// ED/TD-satisfied transaction with no cross-core involvement.
		l := addr.Line(0x9100)
		e.Access(0, l, false)
		e.FlushCore(0) // line now only in the LLC (TD entry)
		return e.Access(0, l, false).Latency
	}
	off := latency(config.MitigationOff)
	sel := latency(config.MitigationSelective)
	naive := latency(config.MitigationNaive)
	if sel != off {
		t.Errorf("selective mitigation slowed a local transaction: %d vs %d", sel, off)
	}
	if naive <= off {
		t.Errorf("naive mitigation did not slow a local transaction: %d vs %d", naive, off)
	}
}

// TestOwnedStateKeepsDirtyData: a remote read of a Modified line downgrades
// the owner to Owned (MOESI, §8), so the owner keeps the only dirty copy and
// no memory write-back happens.
func TestOwnedStateKeepsDirtyData(t *testing.T) {
	e := newEngine(t, config.SecDirConfig(8))
	l := addr.Line(0x5150)
	e.Access(0, l, true)  // core 0: Modified
	e.Access(1, l, false) // core 1 reads: M→O
	if wb := e.Stats().MemWritebacks; wb != 0 {
		t.Errorf("a read of a dirty line wrote back %d times, want 0", wb)
	}
}

// TestDirLatencyTable pins dirLatency to the flat Table 4 split: DirLocalRT
// for the core's own slice, DirRemoteRT for every other slice.
func TestDirLatencyTable(t *testing.T) {
	for _, cores := range []int{4, 8} {
		cfg := config.SkylakeX(cores)
		cfg.Lat.DirLocalRT = 30
		cfg.Lat.DirRemoteRT = 50
		e := newEngine(t, cfg)
		for c := 0; c < cores; c++ {
			for s := 0; s < cores; s++ {
				want := 50
				if c == s {
					want = 30
				}
				if got := e.dirLatency(c, s); got != want {
					t.Errorf("cores=%d dirLatency(%d,%d) = %d, want %d", cores, c, s, got, want)
				}
			}
		}
	}
}

// newTrafficMix returns a deterministic pseudo-random traffic source.
func newTrafficMix(seed uint64) func() (core int, line addr.Line, write bool) {
	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	return func() (int, addr.Line, bool) {
		v := next()
		return int(v % 4), addr.Line(next() % (1 << 14)), next()%6 == 0
	}
}

// TestWayPartitionedEngine runs random traffic on the way-partitioned design
// and checks invariants plus its construction limit.
func TestWayPartitionedEngine(t *testing.T) {
	cfg := config.WayPartitionedConfig(8)
	e := newEngine(t, cfg)
	w := newTrafficMix(21)
	for i := 0; i < 40000; i++ {
		c, l, wr := w()
		e.Access(c&3, l, wr) // traffic mix emits 0..3; machine has 8 cores
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(config.WayPartitionedConfig(16)); err == nil {
		t.Fatal("way-partitioned engine built at 16 cores (11 TD ways)")
	}
}

// TestRandMappedEngineLongRun is the regression test for a mid-upgrade loss:
// re-keying during an upgrade's housekeeping may invalidate the writer's own
// just-upgraded line; the engine must not re-install it in the L1 (doing so
// broke the L1⊆L2 invariant and tripped a panic on the next write).
func TestRandMappedEngineLongRun(t *testing.T) {
	cfg := config.RandMappedConfig(8, 1_500) // aggressive re-keying
	cfg.L2Sets, cfg.L2Ways = 64, 4           // small caches keep it fast
	cfg.L1Sets, cfg.L1Ways = 8, 2
	cfg.TDSets, cfg.TDWays = 128, 4
	cfg.EDSets, cfg.EDWays = 128, 4
	e := newEngine(t, cfg)
	w := newTrafficMix(31)
	for i := 0; i < 120_000; i++ {
		c, l, _ := w()
		// Write-heavy to exercise the upgrade path constantly.
		e.Access(c, l%4096, i%3 == 0)
		if i%20_000 == 19_999 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("after %d accesses: %v", i+1, err)
			}
		}
	}
	var rekeys uint64
	for s := 0; s < cfg.Cores; s++ {
		if rm, ok := e.Slice(s).(interface{ RekeyCount() uint64 }); ok {
			rekeys += rm.RekeyCount()
		}
	}
	if rekeys == 0 {
		t.Fatal("the run never re-keyed; regression scenario not exercised")
	}
}

// TestWayPartitionedLongRun is the regression test for the fill-cascade
// self-invalidation: filling a line can evict a victim whose directory
// cascade conflict-invalidates the just-filled line (likeliest with the
// way-partitioned design's tiny per-core partitions); the engine must not
// then install the line in the L1.
func TestWayPartitionedLongRun(t *testing.T) {
	cfg := config.WayPartitionedConfig(8)
	cfg.L2Sets, cfg.L2Ways = 64, 8
	cfg.L1Sets, cfg.L1Ways = 8, 2
	cfg.TDSets, cfg.TDWays = 64, 8
	cfg.EDSets, cfg.EDWays = 64, 8
	e := newEngine(t, cfg)
	w := newTrafficMix(41)
	for i := 0; i < 150_000; i++ {
		c, l, wr := w()
		e.Access(int(uint(c))%8, l%8192, wr)
		if i%25_000 == 24_999 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("after %d accesses: %v", i+1, err)
			}
		}
	}
}

// TestOccupancySnapshot checks the introspection API: after warming a SecDir
// machine, the ED holds entries, conflicts have parked some in VDs, and the
// per-core totals add up.
func TestOccupancySnapshot(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	w := newTrafficMix(51)
	for i := 0; i < 40000; i++ {
		c, l, wr := w()
		e.Access(c, l, wr)
	}
	o := e.OccupancySnapshot()
	if o.EDEntries == 0 || o.EDCapacity == 0 {
		t.Fatalf("ED occupancy empty: %+v", o)
	}
	if o.EDFill() <= 0 || o.EDFill() > 1 || o.TDFill() > 1 || o.VDFill() > 1 {
		t.Fatalf("fill fractions out of range: %v %v %v", o.EDFill(), o.TDFill(), o.VDFill())
	}
	sum := 0
	for _, n := range o.VDPerCore {
		sum += n
	}
	if sum != o.VDEntries {
		t.Fatalf("per-core VD sum %d != total %d", sum, o.VDEntries)
	}
	// Baseline machines have no VD.
	eb := newEngine(t, smallConfig(config.Baseline))
	eb.Access(0, 1, false)
	if ob := eb.OccupancySnapshot(); ob.VDCapacity != 0 || ob.VDFill() != 0 {
		t.Fatalf("baseline reports VD occupancy: %+v", ob)
	}
}
