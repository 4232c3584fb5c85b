package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape reads GET /metrics into series → value.
func (s *server) scrape() (map[string]float64, error) {
	req, err := http.NewRequest("GET", s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bad line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one /metrics series.
type delta struct{ before, after map[string]float64 }

func (d delta) of(name string) float64 { return d.after[name] - d.before[name] }

// prefix sums the deltas of every series whose name starts with p.
func (d delta) prefix(p string) float64 {
	sum := 0.0
	for k, v := range d.after {
		if strings.HasPrefix(k, p) {
			sum += v - d.before[k]
		}
	}
	return sum
}

// runtimeSnap is the process-wide runtime state at one instant.
type runtimeSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	cpu                 time.Duration // user + system, whole process
	gcCPU, totalCPU     float64       // runtime/metrics CPU-seconds estimates
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time if unsupported
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeSnap{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// sampler tracks the peak Go heap and goroutine count while it runs.
type sampler struct {
	stop      chan struct{}
	done      sync.WaitGroup
	peakHeap  uint64
	peakGorou int
}

// heapSampleEvery is the peak-heap sampling period.
const heapSampleEvery = 2 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peakHeap {
				s.peakHeap = v
			}
			if g := runtime.NumGoroutine(); g > s.peakGorou {
				s.peakGorou = g
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; the peaks are then final.
func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}
