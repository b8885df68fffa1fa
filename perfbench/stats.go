package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 is the finaliser of SplitMix64: a cheap, well-mixed hash
// used to derive one independent random stream per operation index, so
// operation i of a seed is the same no matter which client draws it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prng is a SplitMix64 generator: small, allocation-free, deterministic.
type prng struct{ s uint64 }

func opRand(seed int64, stream, i uint64) *prng {
	return &prng{s: splitmix64(uint64(seed)) ^ splitmix64(stream<<48^i)}
}

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	return splitmix64(p.s)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// binCap is how many latencies one caller keeps per slice of a window.
// serve-mixed completes about 26k operations per caller and slice on
// the reference box, so today every latency is kept. Past binCap a bin
// holds a uniform sample of its slice's operations (reservoir sampling).
const binCap = 1 << 16

// bins holds one caller's operation latencies (ms) in a window, by the
// slice of the window each operation completed in. The bins are
// allocated and written once before the window opens, so the
// benchmark's own memory does not grow with the operations it counts,
// and peak_rss_mb reads the same however many complete.
type bins struct {
	slice time.Duration
	lat   [subWindows][]float32
	n     [subWindows]int64   // operations completed in each slice
	busy  [subWindows]float64 // ms spent inside them
	rng   prng
}

func newBins(window time.Duration, caller int) *bins {
	b := &bins{slice: window / subWindows, rng: prng{s: uint64(caller)}}
	for j := range b.lat {
		l := make([]float32, binCap)
		for k := range l {
			l[k] = 0 // make the pages resident now, not during the window
		}
		b.lat[j] = l[:0]
	}
	return b
}

// add counts one operation that took d and ended at end, from the
// window's start.
func (b *bins) add(end, d time.Duration) {
	j := min(int(end/b.slice), subWindows-1)
	b.n[j]++
	b.busy[j] += ms(d)
	if len(b.lat[j]) < cap(b.lat[j]) {
		b.lat[j] = append(b.lat[j], float32(ms(d)))
	} else if k := b.rng.intn(int(b.n[j])); k < len(b.lat[j]) {
		b.lat[j][k] = float32(ms(d))
	}
}

// total is the number of operations counted.
func (b *bins) total() int64 {
	var n int64
	for _, v := range b.n {
		n += v
	}
	return n
}

// mergeBins folds callers' bins into one, after the window.
func mergeBins(bs []*bins) *bins {
	out := &bins{slice: bs[0].slice}
	for _, b := range bs {
		for j := range out.lat {
			out.lat[j] = append(out.lat[j], b.lat[j]...)
			out.n[j] += b.n[j]
			out.busy[j] += b.busy[j]
		}
	}
	return out
}
