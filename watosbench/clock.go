package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clock times an untraced run's set-ups and ops. The end-to-end host times
// are CPU time: the user plus system time of every thread of the process,
// which is the op's whole cost when a single client waits for it, and which
// leaves out what wall time on a shared host adds — the time its virtual
// CPUs are stolen to run other tenants (rule 8 in README.md). Wall time is
// kept beside it for the run record, with the host's steal share over the
// timed ops.
type clock struct {
	setupCPU, setupWall []time.Duration
	cpu, wall           []time.Duration // per op
	rss                 []float64       // VmRSS after each op, MiB
	steal0, total0      uint64          // /proc/stat at the first op
	steal1, total1      uint64          // and after the last one
}

// setUp times one set-up.
func (c *clock) setUp(f func() error) error {
	c0, w0 := cpuTime(), time.Now()
	err := f()
	c.setupWall = append(c.setupWall, time.Since(w0))
	c.setupCPU = append(c.setupCPU, cpuTime()-c0)
	return err
}

// op times one op and reads the resident set after it.
func (c *clock) op(f func()) {
	if len(c.cpu) == 0 {
		c.steal0, c.total0 = hostCPUStat()
	}
	c0, w0 := cpuTime(), time.Now()
	f()
	c.wall = append(c.wall, time.Since(w0))
	c.cpu = append(c.cpu, cpuTime()-c0)
	c.steal1, c.total1 = hostCPUStat()
	c.rss = append(c.rss, procStatusMiB("VmRSS"))
}

// stealFrac is the share of the host's CPU time stolen from this machine
// while the ops ran.
func (c *clock) stealFrac() float64 {
	return ratio(float64(c.steal1-c.steal0), float64(c.total1-c.total0))
}

// cpuTime is the process's user plus system CPU time so far. Getrusage
// fails only on a bad argument.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPUStat reads the steal and total ticks of the machine's CPUs from
// /proc/stat (0, 0 if it cannot).
func hostCPUStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
