package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procField returns the whitespace-separated fields of the first line of
// path that starts with prefix, without the prefix. A host without
// procfs (or with a different layout) yields nil: the counters derived
// from it then read 0 and the run says so in its host record.
func procField(path, prefix string) []string {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, prefix) {
			return strings.Fields(line[len(prefix):])
		}
	}
	return nil
}

// timeWaitCount reads the kernel's TIME_WAIT socket count
// (/proc/net/sockstat, "TCP: inuse 4 orphan 0 tw 123 ...").
func timeWaitCount() int {
	fs := procField("/proc/net/sockstat", "TCP:")
	for i := 0; i+1 < len(fs); i += 2 {
		if fs[i] == "tw" {
			n, _ := strconv.Atoi(fs[i+1])
			return n
		}
	}
	return 0
}

// timeWaitMax reads net.ipv4.tcp_max_tw_buckets: the table size the
// per-frame dials of livenet fill within seconds.
func timeWaitMax() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/tcp_max_tw_buckets")
	if err != nil {
		return 0
	}
	n, _ := strconv.Atoi(strings.TrimSpace(string(b)))
	return n
}

// tcpActiveOpens reads the host-wide count of outbound TCP connections
// (/proc/net/snmp has a "Tcp:" header line followed by a "Tcp:" value
// line; ActiveOpens is located by name).
func tcpActiveOpens() uint64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Tcp:") {
			continue
		}
		fs := strings.Fields(line[len("Tcp:"):])
		if header == nil {
			header = fs
			continue
		}
		for i, name := range header {
			if name == "ActiveOpens" && i < len(fs) {
				n, _ := strconv.ParseUint(fs[i], 10, 64)
				return n
			}
		}
	}
	return 0
}

// loopbackRxBytes reads the bytes received on lo (/proc/net/dev): every
// byte the in-process fleet puts on the wire, TCP handshakes included.
func loopbackRxBytes() uint64 {
	fs := procField("/proc/net/dev", "lo:")
	if len(fs) == 0 {
		return 0
	}
	n, _ := strconv.ParseUint(fs[0], 10, 64)
	return n
}

// loadAvg1 reads the 1-minute load average.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fs := strings.Fields(string(b))
	if len(fs) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fs[0], 64)
	return v
}

// cpuSeconds returns the process's user+system CPU time: the whole
// in-process fleet's cost, not just the client's.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostRefMS times a fixed SHA-256 loop (64 MiB hashed): a reading well
// above the other runs' marks a disturbed host, not a regression.
func hostRefMS() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	start := time.Now()
	var sum [32]byte
	for i := 0; i < 64; i++ {
		buf[0] = sum[0]
		sum = sha256.Sum256(buf)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// hostRecord is printed with every output so a disturbed run can be told
// from a regression.
type hostRecord struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	LoadAvg1   float64
	TimeWait   int
	Warning    string
}

func readHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg1:   loadAvg1(),
		TimeWait:   timeWaitCount(),
	}
	if h.LoadAvg1 > float64(h.NProc)/2 {
		h.Warning = fmt.Sprintf("loadavg %.2f > nproc/2: timing metrics of this run may be disturbed", h.LoadAvg1)
	}
	return h
}

// fillTimeWait opens and closes loopback connections until the kernel's
// TIME_WAIT table stops growing, so every live run starts from the state
// the workload itself reaches within seconds (livenet dials once per
// frame; a run started on an empty table reads ~10 % faster than one
// started on a full one). It returns the connections made and the time
// spent; limit bounds the time.
func fillTimeWait(limit time.Duration) (int, time.Duration, error) {
	start := time.Now()
	max := timeWaitMax()
	if max == 0 {
		return 0, 0, nil // no procfs: nothing to equalise against
	}
	// Several listeners, as a fleet has: with one destination the kernel
	// reuses the client's TIME_WAIT ports (tcp_tw_reuse on loopback) and
	// the table stops growing far below its limit.
	const listeners = 8
	var wg sync.WaitGroup
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < listeners; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, fmt.Errorf("time-wait fill: %w", err)
		}
		lns = append(lns, ln)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
	}
	made := 0
	last := timeWaitCount()
	for time.Since(start) < limit {
		if last >= max*95/100 {
			break
		}
		const batch = 4096
		for i := 0; i < batch; i++ {
			// The dialer closes first, so the TIME_WAIT entry lands on
			// the client side, as with livenet's per-frame dials.
			c, err := net.Dial("tcp", lns[i%listeners].Addr().String())
			if err != nil {
				return made, time.Since(start), fmt.Errorf("time-wait fill: %w", err)
			}
			c.Close()
			made++
		}
		now := timeWaitCount()
		if now < last+batch/20 {
			break // the table has stopped growing (it is full or capped)
		}
		last = now
	}
	return made, time.Since(start), nil
}
