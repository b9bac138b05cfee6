package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host's speed drifts. On the shared 2-vCPU VM the benchmark was built
// on, each vCPU flips between a fast and a slow mode every second or so (the
// reference pass below takes about 0.16 ms in one and 0.29 ms in the
// other), and the share of time spent slow moves over minutes. A run
// therefore keeps a meter on the spare vCPU: every refEvery it times the
// reference pass in thread CPU time, and the run scales its timings by
// (refNominalMs / mean pass)^refExponent. The reference is frozen here, so a
// change to the simulator moves scaled and raw timings alike; only the
// host's speed is divided out. README.md has the measurements.

const (
	// refNominalMs is the mean pass time the scaled timings are relative to:
	// about the middle of what the build host showed (0.16 to 0.34 ms).
	refNominalMs = 0.25
	// refExponent is less than 1 because the pass slows more in the slow
	// mode than the workloads do: between a run with every pass fast and
	// the host's usual mix, the mean pass moved by 1.6 to 1.8 times and
	// single-threaded workloads by 1.3 to 1.55 times. Of the exponents 0
	// to 1, 0.7 kept the medians of six 8-to-10-run series, some all fast
	// and some mixed, closest together.
	refExponent = 0.7
	// refEvery is the pause between passes; a pass takes about 0.2 ms of
	// CPU, so the meter keeps under 1% of a processor busy.
	refEvery      = 50 * time.Millisecond
	refKeys       = 1 << 8 // the reference map's size: it fits in a core's L1 cache
	refOpsPerPass = 20000  // lookups and updates per timed pass
)

// hostMeter times the reference pass every refEvery until stopped.
type hostMeter struct {
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once
	passes []float64 // ms of thread CPU time; written by the meter until done closes
	err    error
}

// startHostMeter starts the meter. Its first pass runs at once, so that even
// the shortest run has one.
func startHostMeter() *hostMeter {
	h := &hostMeter{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// Thread CPU time times this goroutine only while it keeps its thread;
		// the thread ends with the goroutine.
		runtime.LockOSThread()
		m := newRefMap()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			d, err := refPass(m)
			if err != nil {
				h.err = err
				return
			}
			h.passes = append(h.passes, d)
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the meter and waits for its goroutine; later calls do nothing.
func (h *hostMeter) stop() {
	h.once.Do(func() {
		close(h.quit)
		<-h.done
	})
}

// scale stops the meter. It returns the factor that scales a time measured
// during the run to the nominal host speed, the mean pass time, and the
// number of passes.
func (h *hostMeter) scale() (scale, passMs float64, n int, err error) {
	h.stop()
	if h.err != nil {
		return 0, 0, 0, h.err
	}
	passMs = sum(h.passes) / float64(len(h.passes))
	return math.Pow(refNominalMs/passMs, refExponent), passMs, len(h.passes), nil
}

// refMap is the reference pass's working set: a map filled once, so that a
// pass allocates nothing and leaves the workload's heap numbers alone.
type refMap map[uint64]uint64

func newRefMap() refMap {
	m := make(refMap, refKeys)
	for k := uint64(0); k < refKeys; k++ {
		m[k] = k
	}
	return m
}

// refPass updates refOpsPerPass keys of m in a fixed pseudo-random order
// and returns the thread CPU time it took, in ms. Map probes and hashing are
// what the simulator's own hot paths spend much of their time on.
func refPass(m refMap) (float64, error) {
	refOps(m, refKeys) // untimed: brings the map back into the cache
	start, err := threadCPU()
	if err != nil {
		return 0, err
	}
	refOps(m, refOpsPerPass)
	end, err := threadCPU()
	return ms(end - start), err
}

func refOps(m refMap, n int) {
	x := uint64(88172645463325252)
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%refKeys] += x
	}
}
