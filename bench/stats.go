package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// combine folds per-item digests, in order, into one digest.
func combine(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rusage is the process's CPU time and peak resident set.
type rusage struct {
	cpu    time.Duration
	maxRSS float64 // MB
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rusage{cpu: cpu, maxRSS: float64(ru.Maxrss) / 1024} // Linux reports KiB
}
