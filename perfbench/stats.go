package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples, a p90 100.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest
// rank, and false when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest hashes (request index, body) pairs in index order. It is the
// fingerprint of a workload's output: same seed and same simulator
// semantics give the same digest.
func digest(bodies [][]byte) string {
	h := sha256.New()
	var hdr [16]byte
	for i, b := range bodies {
		binary.BigEndian.PutUint64(hdr[:8], uint64(i))
		binary.BigEndian.PutUint64(hdr[8:], uint64(len(b)))
		h.Write(hdr[:])
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
