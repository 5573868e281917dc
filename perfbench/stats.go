package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the two middle
// values; the caller's slice is not reordered. Empty input yields 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs, clipped to
// [lo, hi]; ivs is sorted in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// vmHWM returns the peak resident set size of a process in MiB, read
// from /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// runtimeSample is a snapshot of the runtime counters the per-layer
// runtime metrics are deltas of.
type runtimeSample struct {
	allocs   float64 // heap objects allocated
	gcCPU    float64 // CPU seconds spent in GC
	totalCPU float64 // CPU seconds available (GOMAXPROCS x wall)
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs + b.allocs, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// promSum parses Prometheus text exposition and sums every sample of
// the named family across its label sets (histogram series excluded).
func promSum(text []byte, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
