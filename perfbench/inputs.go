package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	fusion "repro"
	"repro/internal/dfsm"
	"repro/internal/machines"
)

// Every input of every workload is a pure function of (seed, stream,
// index): operation i of a seed is the same bytes no matter which client
// draws it or how fast the run goes. The streams below keep the
// workloads' random choices independent of each other.
const (
	streamGen uint64 = iota + 1
	streamServe
	streamCatalog
)

// Workload shape. These are the knobs that keep runs steady; changing
// any of them changes the benchmark.
const (
	// gen-cold: one operation in genSuiteEvery is a Table 1 suite, the
	// rest are random systems with tops of genTopMin..genTopMax states.
	genSuiteEvery = 8
	genTopMin     = 300
	genTopMax     = 400

	// serve-mixed: shares of operations that are fresh inline specs
	// (guaranteed misses) and cluster churn cycles; the rest are catalog
	// hits. Miss tops span missTopMin..missTopMax states. The shares,
	// the catalog size and the Zipf exponent come from no measured
	// traffic; they were chosen so that runs are steady (README.md).
	serveMissFrac  = 0.004
	serveChurnFrac = 0.002
	missTopMin     = 50
	missTopMax     = 150
	catalogSize    = 64 // a power of two: catalog ranks it by bit reversal
	catalogTopMax  = 150
	catalogZipfS   = 1.1
	eventsPerOp    = 16 // events a churn cycle appends
)

// clusterSets are the zoo machine sets clusters are built from (f=1):
// small enough that creating one is cheap, different enough that the
// event alphabets and fused backups differ.
var clusterSets = [][]string{
	{"0-Counter", "1-Counter"},
	{"A", "B"},
	{"MESI", "Toggle"},
	{"TrafficLight", "Turnstile"},
}

// zooMachines resolves zoo names; the names are compile-time constants
// or drawn from fusion.ZooNames, so failure is a bug.
func zooMachines(names []string) []*fusion.Machine {
	ms := make([]*fusion.Machine, len(names))
	for i, n := range names {
		m, err := fusion.ZooMachine(n)
		if err != nil {
			panic(err)
		}
		ms[i] = m
	}
	return ms
}

// randomSystem draws 2–3 random machines over a partly shared alphabet
// until their reachable product has lo..hi states. Private events keep
// the product large; shared ones make the machines interact. Machine
// sizes are picked per range so that most draws land in it: small
// machines for the serve-mixed misses, larger ones for gen-cold.
func randomSystem(rng *rand.Rand, lo, hi int) []*fusion.Machine {
	for {
		k := 2 + rng.Intn(2)
		ms := make([]*fusion.Machine, k)
		for j := range ms {
			events := []string{"a", "b", fmt.Sprintf("x%d", j)}
			var states int
			if hi <= missTopMax {
				states = 3 + rng.Intn(4)
				if k == 2 {
					states = 7 + rng.Intn(6)
				}
			} else {
				states = 4 + rng.Intn(6)
				if k == 2 {
					states = 14 + rng.Intn(8)
				}
			}
			ms[j] = dfsm.RandomMachine(rng, fmt.Sprintf("R%d", j), states, events)
		}
		top, err := fusion.ReachableCrossProduct(ms)
		if err == nil && top.Top.NumStates() >= lo && top.Top.NumStates() <= hi {
			return ms
		}
	}
}

func mathRand(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(opRand(seed, stream, i).next() >> 1)))
}

// --- gen-cold -------------------------------------------------------------

// genOp is one gen-cold operation: a Table 1 suite or a random system,
// with its fault budget.
type genOp struct {
	Index int    `json:"i"`
	Suite string `json:"suite,omitempty"`
	Spec  string `json:"spec,omitempty"`
	F     int    `json:"f"`

	ms []*fusion.Machine
}

func genOpAt(seed int64, i int) genOp {
	if i%genSuiteEvery == 0 {
		s := machines.PaperSuites()[(i/genSuiteEvery)%len(machines.PaperSuites())]
		return genOp{Index: i, Suite: s.Name, F: s.F, ms: zooMachines(s.Machines)}
	}
	// Stratified rather than drawn: f alternates and the top-size band
	// cycles through four quarters of the range, so every run holds the
	// same mix and seeds differ only within a stratum.
	band := (genTopMax - genTopMin) / 4
	lo := genTopMin + band*(i%4)
	rng := mathRand(seed, streamGen, uint64(i))
	ms := randomSystem(rng, lo, lo+band)
	return genOp{Index: i, Spec: fusion.FormatSpec(ms), F: 2 - i%2, ms: ms}
}

// --- serve-mixed ----------------------------------------------------------

// catalogEntry is one popular generate request: a set of zoo machines
// and a fault budget, with its precomputed request body.
type catalogEntry struct {
	Zoo  []string
	F    int
	size int // top states × f: what the reply's size grows with
	body []byte
}

func (c catalogEntry) key() string { return fmt.Sprintf("%s/f%d", strings.Join(c.Zoo, ","), c.F) }

// catalogBands are the top-size bands the catalog is stratified over:
// the octiles of the tops that the draw below gives without strata
// (every band holds at least five zoo sets). Each band holds an equal
// share of the catalog, half at f=1 and half at f=2. Drawn freely, the
// catalog's largest entries were up to the seed, and the time to warm
// it varied twofold between seeds.
var catalogBands = []int{0, 3, 5, 8, 12, 20, 32, 60, catalogTopMax + 1}

// catalog draws catalogSize distinct zoo sets of 1–3 machines with
// f∈{1,2}, stratified over catalogBands, most popular first.
//
// Popularity does not follow the draw. A hit's latency grows with its
// reply, so if the draw set the ranks, the seed would pick how large the
// hottest replies are and move the median with it. Instead the entries
// are sorted by size and rank r takes the entry at quantile vdc(r+1), the
// base-2 van der Corput sequence (1/2, 1/4, 3/4, 1/8, ...). The most
// popular entry is then always the median-sized one, the next two the
// quartiles, and so on, whatever the seed.
func catalog(seed int64) []catalogEntry {
	names := fusion.ZooNames()
	rng := opRand(seed, streamCatalog, 0)
	per := catalogSize / (2 * (len(catalogBands) - 1)) // entries per band and f
	filled := make(map[[2]int]int)
	tops := make(map[string]int) // machine set → top states
	seen := make(map[string]bool)
	var out []catalogEntry
	for len(out) < catalogSize {
		k := 1 + rng.intn(3)
		perm := make([]string, 0, k)
		for len(perm) < k {
			n := names[rng.intn(len(names))]
			if !contains(perm, n) {
				perm = append(perm, n)
			}
		}
		sort.Strings(perm)
		e := catalogEntry{Zoo: perm, F: 1 + rng.intn(2)}
		if seen[e.key()] {
			continue
		}
		set := strings.Join(perm, ",")
		n, ok := tops[set]
		if !ok {
			top, err := fusion.ReachableCrossProduct(zooMachines(perm))
			if err != nil {
				n = -1 // no band holds it
			} else {
				n = top.Top.NumStates()
			}
			tops[set] = n
		}
		band := sort.SearchInts(catalogBands, n+1) - 1
		stratum := [2]int{band, e.F}
		if band < 0 || band >= len(catalogBands)-1 || filled[stratum] == per {
			continue
		}
		filled[stratum]++
		seen[e.key()] = true
		e.size = n * e.F
		e.body = mustJSON(map[string]any{"zoo": e.Zoo, "f": e.F})
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].size < out[j].size })
	ranked := make([]catalogEntry, len(out))
	for r := range ranked {
		ranked[r] = out[bits.Reverse8(uint8(r+1))>>2]
	}
	return ranked
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// zipfCDF is the cumulative popularity of catalog ranks 0..n-1 under a
// Zipf law with exponent s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

type serveKind int

const (
	opHit serveKind = iota
	opMiss
	opChurn
)

// serveOp is one serve-mixed operation. A churn op is a sequence of five
// requests on one fresh cluster: create, events with a crash, recover,
// GET, DELETE.
type serveOp struct {
	Index   int       `json:"i"`
	Kind    serveKind `json:"kind"`
	Catalog int       `json:"catalog,omitempty"`
	Spec    string    `json:"spec,omitempty"`
	F       int       `json:"f,omitempty"`
	Set     int       `json:"set,omitempty"`
	Seed    int64     `json:"seed,omitempty"`
	Events  []string  `json:"events,omitempty"`
	Crash   int       `json:"crash,omitempty"`
}

// serveStream holds the per-seed state operations are drawn against.
type serveStream struct {
	seed      int64
	cdf       []float64
	alphabets [][]string
}

func newServeStream(seed int64) *serveStream {
	st := &serveStream{seed: seed, cdf: zipfCDF(catalogSize, catalogZipfS)}
	for _, set := range clusterSets {
		st.alphabets = append(st.alphabets, dfsm.UnionAlphabet(zooMachines(set)))
	}
	return st
}

func (st *serveStream) at(i int) serveOp {
	rng := opRand(st.seed, streamServe, uint64(i))
	u := rng.float()
	switch {
	case u < serveMissFrac:
		r := mathRand(st.seed, streamServe, uint64(i))
		ms := randomSystem(r, missTopMin, missTopMax)
		return serveOp{Index: i, Kind: opMiss, Spec: fusion.FormatSpec(ms), F: 1 + rng.intn(2)}
	case u < serveMissFrac+serveChurnFrac:
		set := rng.intn(len(clusterSets))
		return serveOp{Index: i, Kind: opChurn, Set: set, Seed: int64(rng.next() >> 33),
			Events: drawEvents(rng, st.alphabets[set]), Crash: rng.intn(8)}
	default:
		v := rng.float()
		return serveOp{Index: i, Kind: opHit, Catalog: sort.SearchFloat64s(st.cdf, v)}
	}
}

func drawEvents(rng *prng, alphabet []string) []string {
	evs := make([]string, eventsPerOp)
	for k := range evs {
		evs[k] = alphabet[rng.intn(len(alphabet))]
	}
	return evs
}

// --- canonical operation lists ----------------------------------------------

// opList encodes the first n operations of a workload's stream for a
// seed as JSON lines — the byte-level identity of the inputs.
func opList(workload string, seed int64, n int) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var err error
	switch workload {
	case "gen-cold":
		for i := 0; i < n && err == nil; i++ {
			err = enc.Encode(genOpAt(seed, i))
		}
	case "serve-mixed":
		for _, c := range catalog(seed) {
			if err = enc.Encode(c.Zoo); err != nil {
				return nil, err
			}
		}
		st := newServeStream(seed)
		for i := 0; i < n && err == nil; i++ {
			err = enc.Encode(st.at(i))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return buf.Bytes(), err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
