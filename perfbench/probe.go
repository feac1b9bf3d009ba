package main

import (
	"math"
	"sync"
	"time"
)

// The host the benchmark runs on is a few vCPUs of a shared machine.
// Its speed moves by up to 2× over minutes, with the load of the other
// tenants and with how often the vCPUs go idle, and that moves every
// time the program takes with it. hostProbe measures the host's speed
// during the run itself: before each measured window, outside the
// timer, it runs a fixed kernel (the benchmark's own code, so a change
// to the program cannot move it) on as many goroutines as the engine
// has workers. The end-to-end figures are scaled by the median probe
// time of the run against probeRefMS, so they read as on a host where
// the probe takes probeRefMS. The unscaled figures and the scale are
// printed before the JSON line.

// probeIters is the kernel's iterations per goroutine per sample,
// about 10 ms on the machine of record.
const probeIters = 200_000

// probeRefMS is the reference probe time, close to the median time of
// a probeIters sample on the machine of record with its vCPUs otherwise
// idle.
const probeRefMS = 10.0

// probeMinGap is the least host time between two samples, so that
// short windows do not spend more time probing than measuring.
const probeMinGap = 200 * time.Millisecond

type hostProbe struct {
	par   int // goroutines per sample
	iters int // kernel iterations per goroutine per sample

	mu      sync.Mutex
	states  []*probeState
	samples []float64 // mean per-goroutine kernel time of each sample, ms
	last    time.Time
}

func newHostProbe(par, iters int) *hostProbe {
	p := &hostProbe{par: max(1, par), iters: iters}
	for range p.par {
		p.states = append(p.states, newProbeState())
	}
	return p
}

// maybe samples unless the last sample is less than probeMinGap old.
func (p *hostProbe) maybe() {
	if time.Since(p.last) >= probeMinGap {
		p.sample()
	}
}

// sample runs the kernel once on every goroutine and records the mean
// of their times.
func (p *hostProbe) sample() {
	p.mu.Lock()
	defer p.mu.Unlock()
	times := make([]time.Duration, p.par)
	var wg sync.WaitGroup
	for g, s := range p.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			s.run(p.iters)
			times[g] = time.Since(t)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	p.samples = append(p.samples, ms(sum)/float64(p.par)*probeIters/float64(p.iters))
	p.last = time.Now()
}

// medianMS is the median sample, scaled to probeIters iterations.
func (p *hostProbe) medianMS() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return median(p.samples)
}

// speed is the host's speed relative to the reference host: 0.5 means
// the kernel ran at half the reference speed. A host time t scales to
// t×speed, and a rate r to r/speed.
func (p *hostProbe) speed() float64 { return probeRefMS / p.medianMS() }

// probeState is one goroutine's kernel state: a small map, a 512 KiB
// table and a float array, so that the kernel mixes hashing, cache
// misses and floating point as the simulator does.
type probeState struct {
	m    map[uint64]float64
	tab  []uint64
	f    [512]float64
	sink float64
}

const (
	probeKeys = 1 << 13 // key space; half the keys are in the map
	probeTab  = 1 << 16 // table entries
)

func newProbeState() *probeState {
	s := &probeState{m: make(map[uint64]float64, probeKeys/2), tab: make([]uint64, probeTab)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < probeKeys/2; i++ {
		x = xorshift(x)
		s.m[x&(probeKeys-1)] = float64(i)
	}
	for i := range s.tab {
		s.tab[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return s
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (s *probeState) run(n int) {
	x := uint64(88172645463325252)
	acc := s.sink
	for range n {
		x = xorshift(x)
		if v, ok := s.m[x&(probeKeys-1)]; ok {
			acc += v
		}
		a := s.tab[(x>>11)&(probeTab-1)]
		s.tab[(x>>31)&(probeTab-1)] = a + x
		j := x & 511
		s.f[j] = s.f[j]*0.5 + float64(a&0xffff)
		acc += math.Sqrt(s.f[(x>>20)&511]) * math.Exp(-float64(x&1023)/1024)
	}
	s.sink = acc
}
