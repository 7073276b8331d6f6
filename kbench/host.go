package main

import (
	"time"
)

// Host calibration, recorded beside every run.  On a shared VM the memory
// speed drifts more than most code changes move the benchmark; these two
// fixed loops make that drift visible next to the figures it distorts.

const (
	aluIters     = 20_000_000
	sweepWords   = 4 << 20 // 32 MiB of uint64
	sweepPasses  = 4
	calibrations = 3
)

var calibSink uint64

// aluMS times a fixed xorshift loop that touches no memory.
func aluMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < aluIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// memSweepMS times sweepPasses sequential read passes over buf.
func memSweepMS(buf []uint64) float64 {
	start := time.Now()
	var s uint64
	for p := 0; p < sweepPasses; p++ {
		for _, v := range buf {
			s += v
		}
	}
	calibSink += s
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// calibrate returns the medians of a few ALU and memory-sweep timings.
func calibrate() (alu, sweep float64) {
	buf := make([]uint64, sweepWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var as, ss []float64
	for i := 0; i < calibrations; i++ {
		as = append(as, aluMS())
		ss = append(ss, memSweepMS(buf))
	}
	return median(as), median(ss)
}
