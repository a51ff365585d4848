package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gdn/internal/netsim"
)

// errMismatch marks an output that contradicts the generator's own copy
// of the input, as opposed to an operation that failed outright.
var errMismatch = errors.New("output mismatch")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errMismatch}, args...)...)
}

// opCount is one operation type's tally.
type opCount struct {
	attempted, failed int64
	latMS             []float64 // successful operations
}

// recorder collects one client's operations. It is owned by one
// goroutine; merge combines them after the clients stop.
type recorder struct {
	ops        map[string]*opCount
	latMS      []float64 // per successful operation
	ttfbMS     []float64 // per successful HTTP operation
	bytes      int64     // body bytes read by successful operations
	mismatches int64
	firstErr   error
	wall       time.Duration
}

func newRecorder() *recorder {
	return &recorder{ops: map[string]*opCount{}, latMS: make([]float64, 0, 1<<17), ttfbMS: make([]float64, 0, 1<<17)}
}

// done records one operation that took took. ttfb < 0 means the
// operation has no first-byte time.
func (r *recorder) done(kind string, took, ttfb time.Duration, bytes int64, err error) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		if errors.Is(err, errMismatch) {
			r.mismatches++
		}
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", kind, err)
		}
		if c.failed <= 3 {
			fmt.Fprintf(os.Stderr, "gdnbench: %s failed: %v\n", kind, err)
		}
		return
	}
	c.latMS = append(c.latMS, ms(took))
	r.latMS = append(r.latMS, ms(took))
	if ttfb >= 0 {
		r.ttfbMS = append(r.ttfbMS, ms(ttfb))
	}
	r.bytes += bytes
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (r *recorder) add(o *recorder) {
	for k, c := range o.ops {
		mine := r.ops[k]
		if mine == nil {
			mine = &opCount{}
			r.ops[k] = mine
		}
		mine.attempted += c.attempted
		mine.failed += c.failed
		mine.latMS = append(mine.latMS, c.latMS...)
	}
	r.latMS = append(r.latMS, o.latMS...)
	r.ttfbMS = append(r.ttfbMS, o.ttfbMS...)
	r.bytes += o.bytes
	r.mismatches += o.mismatches
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	if o.wall > r.wall {
		r.wall = o.wall
	}
}

func mergeRecorders(recs []*recorder) *recorder {
	all := newRecorder()
	for _, r := range recs {
		all.add(r)
	}
	return all
}

func (r *recorder) attempted() int64 {
	var n int64
	for _, c := range r.ops {
		n += c.attempted
	}
	return n
}

func (r *recorder) failed() int64 {
	var n int64
	for _, c := range r.ops {
		n += c.failed
	}
	return n
}

// summary renders per-operation-type counts and sample counts.
func (r *recorder) summary() []string {
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]string, 0, len(kinds)+1)
	for _, k := range kinds {
		c := r.ops[k]
		sort.Float64s(c.latMS)
		out = append(out, fmt.Sprintf("op %-8s attempted=%d failed=%d p50=%.3fms p90=%.3fms", k, c.attempted, c.failed,
			percentile(c.latMS, 0.5), percentile(c.latMS, 0.9)))
	}
	all := append([]float64(nil), r.latMS...)
	sort.Float64s(all)
	out = append(out, fmt.Sprintf("latency samples=%d p90=%.3fms p99=%.3fms ttfb samples=%d mismatches=%d wall=%.3fs",
		len(all), percentile(all, 0.9), percentile(all, 0.99), len(r.ttfbMS), r.mismatches, r.wall.Seconds()))
	return out
}

// meter brackets the measured phase: process CPU, Go heap allocation
// and simulated wide-area traffic.
type meter struct {
	net   *netsim.Network
	cpu   time.Duration
	alloc uint64
	wan   int64
}

func startMeter(net *netsim.Network) *meter {
	m := &meter{net: net}
	m.cpu = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc = ms.TotalAlloc
	m.wan = m.net.Meter().Bytes[netsim.WideArea]
	return m
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stop fills the end-to-end metrics from the measured phase.
func (m *meter) stop(r *recorder, res *result) {
	cpu := cpuTime() - m.cpu
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	alloc := mst.TotalAlloc - m.alloc
	wan := m.net.Meter().Bytes[netsim.WideArea] - m.wan

	ops := float64(len(r.latMS))
	wall := r.wall.Seconds()
	sort.Float64s(r.latMS)
	sort.Float64s(r.ttfbMS)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("goodput_mb_s", "MB/s", float64(r.bytes)/1e6/wall)
	put("throughput_ops_s", "ops/s", ops/wall)
	put("latency_p50_ms", "ms", percentile(r.latMS, 0.50))
	put("ttfb_p50_ms", "ms", percentile(r.ttfbMS, 0.50))
	put("cpu_ms_per_op", "ms", ms(cpu)/ops)
	put("alloc_kb_per_op", "KiB", float64(alloc)/1024/ops)
	put("wan_kb_per_op", "KiB", float64(wan)/1024/ops)
}

// hostTicks reads the machine's CPU time counters (user, nice, system,
// idle, iowait, irq, softirq, steal) from the first line of /proc/stat,
// or returns nil where there is no such file.
func hostTicks() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	t := make([]uint64, 8)
	for i := range t {
		if t[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return nil
		}
	}
	return t
}

// stealShare renders the share of the machine's CPU time between two
// hostTicks readings that the hypervisor gave to other guests. On a
// shared virtual machine it, not the program, is what moves wall-clock
// figures between runs taken at different times.
func stealShare(before, after []uint64) string {
	if before == nil || after == nil {
		return "unavailable"
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return "unavailable"
	}
	return strconv.FormatFloat(float64(after[7]-before[7])/float64(total), 'f', 4, 64)
}
