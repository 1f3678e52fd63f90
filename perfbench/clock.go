package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The gated time metrics are read on a clock that runs net of hypervisor
// steal: wall time minus the time, per CPU on average, that the hypervisor
// ran other guests while this machine's CPUs were ready to run ("steal" in
// /proc/stat). On a shared virtual machine that share drifts with the
// neighbours' load; on a 2-vCPU host it went from 5% to 20% over six
// minutes, and the wall-clock throughput of identical runs fell by 29% with
// it. The program's own cost is what a later change must be judged by, and
// on a dedicated machine the two clocks agree. Contention that the
// hypervisor does not report as steal, such as for shared caches, still
// shows. Where /proc/stat cannot be read the clock is plain wall time.

// userHZ is the unit of /proc/stat's counters, USER_HZ, which Linux fixes
// at 100 for every architecture it exports them on.
const userHZ = 100

// clockStamp is a point on the net clock.
type clockStamp struct {
	wall  time.Time
	steal time.Duration // steal so far, averaged over the CPUs
}

// stampNow reads the net clock.
func stampNow() clockStamp {
	steal, ncpu := readSteal()
	s := clockStamp{wall: time.Now()}
	if ncpu > 0 {
		s.steal = time.Duration(steal) * (time.Second / userHZ) / time.Duration(ncpu)
	}
	return s
}

// since returns the net and the wall time elapsed from s to now.
func (s clockStamp) since() (net, wall time.Duration) {
	now := stampNow()
	return netTime(now.wall.Sub(s.wall), now.steal-s.steal), now.wall.Sub(s.wall)
}

// netTime subtracts steal from a wall-clock span. The counters tick in
// 10 ms steps, so over a short span the steal read can exceed the span;
// the result then keeps a floor of a tenth of the span, which a span long
// enough to be measured on this clock never reaches.
func netTime(wall, steal time.Duration) time.Duration {
	if net := wall - steal; net > wall/10 {
		return net
	}
	return wall / 10
}

// readSteal returns the steal counter of the aggregate "cpu" line of
// /proc/stat and the number of per-CPU lines (zeros if unreadable).
func readSteal() (steal uint64, ncpu int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu": // user nice system idle iowait irq softirq steal
			if steal, err = strconv.ParseUint(f[8], 10, 64); err != nil {
				return 0, 0
			}
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			ncpu++
		}
	}
	return steal, ncpu
}
