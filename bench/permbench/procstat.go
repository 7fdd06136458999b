package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicksPerSecond = 100

// cpuSeconds is the user+system CPU time a process has consumed, from
// /proc/<pid>/stat ("self" for permbench itself).
func cpuSeconds(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces; the
	// numbered fields resume after the last ')'.
	rest := string(blob)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad cpu fields", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// rssPeakMB is the process's peak resident set (VmHWM), in MiB.
func rssPeakMB(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// procsCPU sums cpuSeconds over children; procsRSS takes the largest peak.
func procsCPU(ps []*proc) float64 {
	var total float64
	for _, p := range ps {
		if s, err := cpuSeconds(p.pid()); err == nil {
			total += s
		}
	}
	return total
}

func procsRSS(ps []*proc) float64 {
	var peak float64
	for _, p := range ps {
		if mb, err := rssPeakMB(p.pid()); err == nil && mb > peak {
			peak = mb
		}
	}
	return peak
}

// dirBytes is the total size of the regular files under dir (0 if absent).
func dirBytes(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}

// loadavg1 is the 1-minute load average when the run started: a run that
// begins on a busy machine says so.
func loadavg1() float64 {
	blob, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(blob))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// machine identifies the host a report was measured on; reports from
// different machines are not comparable.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(blob))
	}
	return m
}
