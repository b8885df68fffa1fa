// Package experiments regenerates every table and figure of the paper's
// evaluation (cmd/paper's -experiment flag indexes them). Each function
// returns printable text plus structured results so that both cmd/paper and
// the benchmarks can consume them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/exec"
	"repro/internal/gfp"
	"repro/internal/lattice"
	"repro/internal/machines"
	"repro/internal/partition"
	"repro/internal/replication"
	"repro/internal/trace"
)

// TableRow is one row of the paper's Section 6 results table.
type TableRow struct {
	Suite       string
	Machines    []string
	F           int
	TopSize     int
	BackupSizes []int
	// Replication is (Π|Mi|)^f, the state space of the replication backups.
	Replication uint64
	// Fusion is Π|Fj|, the state space of the generated fusion backups.
	Fusion uint64
	// Elapsed is the fusion generation time.
	Elapsed time.Duration
}

// RunTableRow computes one row: build the system, generate the fusion with
// Algorithm 2, and account both state spaces.
func RunTableRow(s machines.Suite) (*TableRow, error) {
	return RunTableRowWithOptions(s, core.GenerateOptions{})
}

// RunTableRowWithOptions is RunTableRow with explicit Algorithm 2
// options, so the ablation benchmarks can measure a row with individual
// optimizations switched off.
func RunTableRowWithOptions(s machines.Suite, opts core.GenerateOptions) (*TableRow, error) {
	ms, err := machines.SuiteMachines(s)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(ms)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	F, err := core.GenerateFusion(sys, s.F, opts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	row := &TableRow{
		Suite:       s.Name,
		Machines:    append([]string(nil), s.Machines...),
		F:           s.F,
		TopSize:     sys.N(),
		Replication: replication.CrashStateSpace(ms, s.F),
		Fusion:      1,
		Elapsed:     elapsed,
	}
	for _, p := range F {
		row.BackupSizes = append(row.BackupSizes, p.NumBlocks())
		row.Fusion *= uint64(p.NumBlocks())
	}
	return row, nil
}

// Table1 runs all five rows of the results table.
func Table1() ([]*TableRow, error) {
	var rows []*TableRow
	for _, s := range machines.PaperSuites() {
		row, err := RunTableRow(s)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", s.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable renders rows in the paper's column layout.
func FormatTable(rows []*TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-55s %2s %5s %-18s %14s %10s %10s\n",
		"id", "Original Machines", "f", "|top|", "|Backup Machines|", "|Replication|", "|Fusion|", "gen time")
	for _, r := range rows {
		sizes := make([]string, len(r.BackupSizes))
		for i, s := range r.BackupSizes {
			sizes[i] = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(&b, "%-8s %-55s %2d %5d %-18s %14d %10d %10s\n",
			r.Suite, strings.Join(r.Machines, ", "), r.F, r.TopSize,
			"["+strings.Join(sizes, " ")+"]", r.Replication, r.Fusion,
			r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// Fig1Result carries the reproduced data of Fig. 1.
type Fig1Result struct {
	TopSize        int
	F1States       int
	F2States       int
	DminAB         int
	DminWithF1     int
	DminWithF1F2   int
	F1IsFusion     bool
	ByzantineOK    bool
	GeneratedSizes []int
}

// Fig1 reproduces the mod-3 counter example: F1 = (n0+n1) mod 3 is a
// (1,1)-fusion; {F1,F2} tolerates one Byzantine fault; and Algorithm 2
// finds a 3-state fusion automatically.
func Fig1() (*Fig1Result, error) {
	sys, err := core.NewSystem([]*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()})
	if err != nil {
		return nil, err
	}
	f1, err := sys.PartitionOf(machines.SumCounter(3))
	if err != nil {
		return nil, err
	}
	f2, err := sys.PartitionOf(machines.DiffCounter(3))
	if err != nil {
		return nil, err
	}
	ok1, err := sys.IsFusion([]partition.P{f1}, 1)
	if err != nil {
		return nil, err
	}
	gen, err := core.GenerateFusion(sys, 1, core.GenerateOptions{})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{
		TopSize:      sys.N(),
		F1States:     f1.NumBlocks(),
		F2States:     f2.NumBlocks(),
		DminAB:       sys.Dmin(),
		DminWithF1:   sys.DminWith([]partition.P{f1}),
		DminWithF1F2: sys.DminWith([]partition.P{f1, f2}),
		F1IsFusion:   ok1,
	}
	res.ByzantineOK = res.DminWithF1F2 >= 3
	for _, p := range gen {
		res.GeneratedSizes = append(res.GeneratedSizes, p.NumBlocks())
	}
	return res, nil
}

// FormatFig1 renders the Fig. 1 reproduction.
func FormatFig1(r *Fig1Result) string {
	var b strings.Builder
	b.WriteString("Fig. 1 — mod-3 counters A (n0), B (n1)\n")
	fmt.Fprintf(&b, "  |R({A,B})| = %d (paper: 9)\n", r.TopSize)
	fmt.Fprintf(&b, "  dmin({A,B}) = %d → tolerates %d crash faults alone\n", r.DminAB, r.DminAB-1)
	fmt.Fprintf(&b, "  F1 = (n0+n1) mod 3: %d states, (1,1)-fusion: %v; dmin with F1 = %d\n",
		r.F1States, r.F1IsFusion, r.DminWithF1)
	fmt.Fprintf(&b, "  F2 = (n0-n1) mod 3: %d states; dmin({A,B,F1,F2}) = %d → one Byzantine fault: %v\n",
		r.F2States, r.DminWithF1F2, r.ByzantineOK)
	fmt.Fprintf(&b, "  Algorithm 2 output for f=1: machine sizes %v (vs reachable cross product of 9 states)\n",
		r.GeneratedSizes)
	return b.String()
}

// Fig2Result carries the reproduced data of Fig. 2.
type Fig2Result struct {
	ASize, BSize int
	TopSize      int
	TopNames     []string
	M1Closed     bool
	M1Size       int
}

// Fig2 reproduces the reachable-cross-product example of Fig. 2.
func Fig2() (*Fig2Result, error) {
	sys, err := core.NewSystem([]*dfsm.Machine{machines.Fig2A(), machines.Fig2B()})
	if err != nil {
		return nil, err
	}
	m1, err := resolveFig2M1(sys)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		ASize:    sys.Machines[0].NumStates(),
		BSize:    sys.Machines[1].NumStates(),
		TopSize:  sys.N(),
		TopNames: sys.Top.States(),
		M1Closed: partition.IsClosed(sys.Top, m1),
		M1Size:   m1.NumBlocks(),
	}, nil
}

func resolveFig2M1(sys *core.System) (partition.P, error) {
	type key [2]string
	ix := map[key]int{}
	for ti, tuple := range sys.Product.Proj {
		ix[key{sys.Machines[0].StateName(tuple[0]), sys.Machines[1].StateName(tuple[1])}] = ti
	}
	var blocks [][]int
	for _, blk := range machines.Fig2M1Blocks() {
		var b []int
		for _, pr := range blk {
			ti, ok := ix[key{pr[0], pr[1]}]
			if !ok {
				return partition.P{}, fmt.Errorf("experiments: tuple %v unreachable", pr)
			}
			b = append(b, ti)
		}
		blocks = append(blocks, b)
	}
	return partition.FromBlocks(sys.N(), blocks)
}

// FormatFig2 renders the Fig. 2 reproduction.
func FormatFig2(r *Fig2Result) string {
	var b strings.Builder
	b.WriteString("Fig. 2 — machines A, B and R({A,B})\n")
	fmt.Fprintf(&b, "  |A| = %d, |B| = %d (paper: 3, 3)\n", r.ASize, r.BSize)
	fmt.Fprintf(&b, "  |R({A,B})| = %d (paper: 4); states: %s\n", r.TopSize, strings.Join(r.TopNames, " "))
	fmt.Fprintf(&b, "  M1 (3-state machine below ⊤): closed partition = %v, %d states\n", r.M1Closed, r.M1Size)
	return b.String()
}

// Fig3Result carries the lattice reproduction.
type Fig3Result struct {
	Size        int
	BasisSize   int
	ContainsA   bool
	ContainsB   bool
	ContainsM1  bool
	RankProfile map[int]int
	DOT         string
}

// Fig3 enumerates the closed-partition lattice of the Fig. 2 top.
func Fig3() (*Fig3Result, error) {
	sys, err := core.NewSystem([]*dfsm.Machine{machines.Fig2A(), machines.Fig2B()})
	if err != nil {
		return nil, err
	}
	l, err := lattice.Build(sys.Top, 0)
	if err != nil {
		return nil, err
	}
	m1, err := resolveFig2M1(sys)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		Size:        l.Size(),
		BasisSize:   len(l.Basis()),
		ContainsA:   l.Contains(sys.Parts[0]),
		ContainsB:   l.Contains(sys.Parts[1]),
		ContainsM1:  l.Contains(m1),
		RankProfile: map[int]int{},
		DOT:         l.DOT(),
	}
	for _, p := range l.Nodes {
		res.RankProfile[p.NumBlocks()]++
	}
	return res, nil
}

// FormatFig3 renders the lattice reproduction.
func FormatFig3(r *Fig3Result) string {
	var b strings.Builder
	b.WriteString("Fig. 3 — closed partition lattice of R({A,B})\n")
	fmt.Fprintf(&b, "  lattice size %d, basis (lower cover of ⊤) size %d\n", r.Size, r.BasisSize)
	fmt.Fprintf(&b, "  contains A: %v, B: %v, M1: %v\n", r.ContainsA, r.ContainsB, r.ContainsM1)
	ranks := make([]int, 0, len(r.RankProfile))
	for k := range r.RankProfile {
		ranks = append(ranks, k)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ranks)))
	for _, k := range ranks {
		fmt.Fprintf(&b, "  %d-block machines: %d\n", k, r.RankProfile[k])
	}
	b.WriteString("  (run 'paper -experiment fig3 -dot' for the Hasse diagram)\n")
	return b.String()
}

// Fig4Result carries the fault-graph reproductions.
type Fig4Result struct {
	// Graphs maps a label (e.g. "G({A})") to its rendered weight matrix.
	Graphs []LabelledGraph
}

// LabelledGraph is one fault graph with its dmin.
type LabelledGraph struct {
	Label  string
	Dmin   int
	Matrix string
}

// Fig4 builds the fault graphs of Fig. 4 over the Fig. 2 system: {A},
// {A,B}, {A,B,M1}, {A,B,M1,⊤}.
func Fig4() (*Fig4Result, error) {
	sys, err := core.NewSystem([]*dfsm.Machine{machines.Fig2A(), machines.Fig2B()})
	if err != nil {
		return nil, err
	}
	m1, err := resolveFig2M1(sys)
	if err != nil {
		return nil, err
	}
	top := partition.Singletons(sys.N())
	sets := []struct {
		label string
		parts []partition.P
	}{
		{"G({A})", []partition.P{sys.Parts[0]}},
		{"G({A,B})", sys.Parts},
		{"G({A,B,M1})", []partition.P{sys.Parts[0], sys.Parts[1], m1}},
		{"G({A,B,M1,T})", []partition.P{sys.Parts[0], sys.Parts[1], m1, top}},
	}
	res := &Fig4Result{}
	for _, s := range sets {
		g := core.BuildFaultGraph(sys.N(), s.parts)
		res.Graphs = append(res.Graphs, LabelledGraph{
			Label:  s.label,
			Dmin:   g.Dmin(),
			Matrix: g.String(),
		})
	}
	return res, nil
}

// FormatFig4 renders the fault graphs.
func FormatFig4(r *Fig4Result) string {
	var b strings.Builder
	b.WriteString("Fig. 4 — fault graphs over the Fig. 2 top\n")
	for _, g := range r.Graphs {
		fmt.Fprintf(&b, "  %s: dmin = %d\n", g.Label, g.Dmin)
		for _, line := range strings.Split(strings.TrimRight(g.Matrix, "\n"), "\n")[1:] {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// Fig5Result carries the set-representation reproduction.
type Fig5Result struct {
	MachineName string
	Sets        []string // one line per machine state
}

// Fig5 runs Algorithm 1 for machine A of Fig. 2 against its top.
func Fig5() (*Fig5Result, error) {
	sys, err := core.NewSystem([]*dfsm.Machine{machines.Fig2A(), machines.Fig2B()})
	if err != nil {
		return nil, err
	}
	a := sys.Machines[0]
	sets, err := core.SetRepresentation(sys.Top, a)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{MachineName: a.Name()}
	for s, set := range sets {
		names := make([]string, len(set))
		for i, t := range set {
			names[i] = fmt.Sprintf("t%d", t)
		}
		res.Sets = append(res.Sets, fmt.Sprintf("%s = {%s}", a.StateName(s), strings.Join(names, ",")))
	}
	return res, nil
}

// FormatFig5 renders the set representation.
func FormatFig5(r *Fig5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — set representation of %s w.r.t. ⊤ (Algorithm 1)\n", r.MachineName)
	for _, s := range r.Sets {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// SensorResult carries the sensor-network experiment of the introduction
// and conclusion: n mod-k sensors, f crash faults, fusion vs replication.
type SensorResult struct {
	Sensors            int
	Mod                int
	F                  int
	FusionMachines     int
	FusionStates       []int
	ReplicationBackups int
	Elapsed            time.Duration
	RecoveryOK         bool
}

// Sensor runs the sensor-network experiment: the hand-built weighted-sum
// fusions back up n independent mod-k counters against f crash faults, and
// one randomized crash/recovery round is verified end to end.
//
// The reachable cross product of n mod-k counters has k^n states, so
// Algorithm 2 is infeasible there; the paper's introduction argues the
// fusion exists by construction (one 3-state sum counter for f=1). We
// verify the constructed fusions with the fault-graph criterion on small n
// and with direct recovery at scale.
// Sensor construction and replay both run on the shared worker pool:
// each sensor is independent, so building the n machines and replaying
// the stream through them shard cleanly, and the index-addressed writes
// keep the result identical to the serial computation.
func Sensor(n, k, f int, seed int64) (*SensorResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("experiments: sensor modulus %d", k)
	}
	pool := exec.Default()
	sensors := make([]*dfsm.Machine, n)
	pool.Run(n, func(_ *exec.Ctx, i int) { sensors[i] = machines.SensorCounter(i, k) })
	fusions := make([]*dfsm.Machine, f)
	pool.Run(f, func(_ *exec.Ctx, m int) { fusions[m] = machines.SensorFusion(n, k, m) })
	start := time.Now()

	// Recovery check without materializing the k^n-state top: crash f
	// sensors, solve for their counts from the surviving machines. With
	// Vandermonde-style coefficients modulo prime k, f erasures are
	// solvable when the coefficient minor is invertible; we verify
	// operationally by replay.
	res := &SensorResult{
		Sensors:            n,
		Mod:                k,
		F:                  f,
		FusionMachines:     f,
		ReplicationBackups: n * f,
	}
	for _, fm := range fusions {
		res.FusionStates = append(res.FusionStates, fm.NumStates())
	}

	gen := trace.NewGenerator(seed, sensors)
	events := gen.Take(200)
	// Ground truth, replayed shard-parallel across the pool.
	truth := make([]int, n)
	pool.Run(n, func(_ *exec.Ctx, i int) { truth[i] = sensors[i].Run(events) })
	fusionStates := make([]int, f)
	pool.Run(f, func(_ *exec.Ctx, m int) { fusionStates[m] = fusions[m].Run(events) })
	// Crash sensor 0 (and for f≥2, sensor 1): recover via the fusion sums.
	res.RecoveryOK = sensorRecover(n, k, f, truth, fusionStates)
	res.Elapsed = time.Since(start)
	return res, nil
}

// sensorRecover solves for up to f crashed counts using the weighted sums,
// via the GF(k) Vandermonde machinery of Section 3's erasure-code analogy
// (k must be prime; the crashed sensors' evaluation points must be distinct
// modulo k, which holds here since sensors 0..f-1 crash and f < k).
func sensorRecover(n, k, f int, truth []int, fusionStates []int) bool {
	field, err := gfp.NewField(k)
	if err != nil {
		return false
	}
	crashed := make([]int, f)
	points := make([]int, f)
	for i := range crashed {
		crashed[i] = i // sensors 0..f-1 crash
		points[i] = i + 1
	}
	// Residuals: r_m = fusion_m − Σ_{healthy} (i+1)^m·truth_i  (mod k).
	rhs := make([]int, f)
	for m := 0; m < f; m++ {
		r := fusionStates[m]
		for i := f; i < n; i++ {
			r = field.Sub(r, field.Mul(field.Pow(i+1, m), truth[i]))
		}
		rhs[m] = r
	}
	x, err := field.SolveVandermonde(points, rhs)
	if err != nil {
		return false
	}
	for j, i := range crashed {
		if x[j] != truth[i] {
			return false
		}
	}
	return true
}

// FormatSensor renders the sensor experiment.
func FormatSensor(r *SensorResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensor network — %d mod-%d counters, f = %d crash faults\n", r.Sensors, r.Mod, r.F)
	fmt.Fprintf(&b, "  replication needs %d backup sensors; fusion needs %d (sizes %v)\n",
		r.ReplicationBackups, r.FusionMachines, r.FusionStates)
	fmt.Fprintf(&b, "  crash-recovery of %d sensors verified: %v  (%.2fms)\n",
		r.F, r.RecoveryOK, float64(r.Elapsed.Microseconds())/1000)
	return b.String()
}
