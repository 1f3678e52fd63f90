package coherence

import (
	"fmt"

	"secdir/internal/config"
	"secdir/internal/directory"
	"secdir/internal/metrics"
	"secdir/internal/stats"
)

// AttachMetrics sets the registry PublishMetrics writes to and layers beside
// the engine (the attack toolkit) record into. Nothing is recorded per
// access: the engine counts in its plain Stats and the slices' directory
// stats either way. Attaching a nil registry detaches metrics.
func (e *Engine) AttachMetrics(r *metrics.Registry) { e.reg = r }

// Metrics returns the attached registry, or nil when metrics are disabled.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// PublishMetrics adds the engine's counts since construction or the last
// Reset to the attached registry, and sets the directory occupancy gauges to
// the current fill. Every name is created even when its count is zero. It is
// a no-op without a registry. Call it once per run, with the engine
// quiescent: publishing again adds the same counts again.
//
// Names: engine/access/<level> and engine/latency/<level>,
// engine/msg/{gets,getx,upgrade,evict}, engine/invalidate/<reason>,
// engine/mem_writebacks, engine/no_fills, and the dir/{ed,td,vd}_{entries,fill}
// gauges; SecDir engines add dir/td_to_vd, dir/vd_drop, vd/lookups,
// vd/eb_filtered, vd/eb_churn and the vd/reloc_depth histogram.
func (e *Engine) PublishMetrics() {
	r := e.reg
	if r == nil {
		return
	}
	var tot CoreStats
	for _, c := range e.stats.Core {
		tot.Add(c)
	}
	access := [...]uint64{LevelL1: tot.L1Hits, LevelL2: tot.L2Hits, LevelEDTD: tot.MissEDTD, LevelVD: tot.MissVD, LevelMemory: tot.MissMem}
	for lv, n := range access {
		r.Counter(fmt.Sprintf("engine/access/%v", Level(lv))).Add(n)
		r.Histogram(fmt.Sprintf("engine/latency/%v", Level(lv))).Merge(&e.stats.Latency[lv])
	}
	r.Counter("engine/msg/gets").Add(tot.L2Misses() - tot.GetX)
	r.Counter("engine/msg/getx").Add(tot.GetX)
	r.Counter("engine/msg/upgrade").Add(tot.Upgrades)
	r.Counter("engine/msg/evict").Add(tot.L2Evictions)
	for reason, n := range e.stats.Invalidations {
		r.Counter(fmt.Sprintf("engine/invalidate/%v", directory.Reason(reason))).Add(n)
	}
	r.Counter("engine/mem_writebacks").Add(e.stats.MemWritebacks)
	r.Counter("engine/no_fills").Add(tot.NoFills)

	o := e.OccupancySnapshot()
	r.Gauge("dir/ed_entries").Set(float64(o.EDEntries))
	r.Gauge("dir/ed_fill").Set(o.EDFill())
	r.Gauge("dir/td_entries").Set(float64(o.TDEntries))
	r.Gauge("dir/td_fill").Set(o.TDFill())
	r.Gauge("dir/vd_entries").Set(float64(o.VDEntries))
	r.Gauge("dir/vd_fill").Set(o.VDFill())

	if e.cfg.Kind != config.SecDir {
		return
	}
	d := e.DirStats()
	r.Counter("dir/td_to_vd").Add(d.TDToVD)
	r.Counter("dir/vd_drop").Add(d.VDDrop)
	r.Counter("vd/lookups").Add(d.VDLookups)
	r.Counter("vd/eb_filtered").Add(d.VDLookupsNoEB - d.VDLookups)
	var depth stats.Histogram
	var churn uint64
	for _, s := range e.secSlices {
		for c := 0; c < e.cfg.Cores; c++ {
			b := s.VDBank(c)
			depth.Merge(&b.RelocDepth)
			churn += b.EBChurn
		}
	}
	r.Histogram("vd/reloc_depth").Merge(&depth)
	r.Counter("vd/eb_churn").Add(churn)
}
