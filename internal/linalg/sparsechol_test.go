package linalg

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// csrOf converts a dense matrix to CSR, storing every nonzero (NaN and ±Inf
// included) and dropping exact zeros.
func csrOf(d *Dense) *CSR {
	var items []Coord
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); v != 0 {
				items = append(items, Coord{Row: i, Col: j, Val: v})
			}
		}
	}
	return NewCSR(d.Rows, items)
}

// verifiedOf is NewVerifiedCholesky with a fresh analysis of a's pattern
// and the default tolerance.
func verifiedOf(a *CSR) (*VerifiedCholesky, error) {
	return NewVerifiedCholesky(a, AnalyzeCholesky(a), 0)
}

// gridLaplacian builds an SPD conductance matrix over a width-wide 2-D grid
// of n nodes (row-major, last row partial) with random edge weights and a
// random ground leg per node: the pattern class of a thermal RC network,
// where a minimum-degree ordering has real fill to fight.
func gridLaplacian(rng *rand.Rand, n, width int) *CSR {
	var items []Coord
	link := func(a, b int) {
		g := 0.1 + rng.Float64()
		items = append(items,
			Coord{a, a, g}, Coord{b, b, g},
			Coord{a, b, -g}, Coord{b, a, -g})
	}
	for i := 0; i < n; i++ {
		items = append(items, Coord{i, i, 0.01 + 0.1*rng.Float64()})
		if (i+1)%width != 0 && i+1 < n {
			link(i, i+1)
		}
		if i+width < n {
			link(i, i+width)
		}
	}
	return NewCSR(n, items)
}

func TestSparseCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, width int }{{1, 1}, {7, 7}, {30, 5}, {305, 16}} {
		m := gridLaplacian(rng, tc.n, tc.width)
		ch, err := AnalyzeCholesky(m).Factor(m)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		dense, err := NewCholesky(m.Dense())
		if err != nil {
			t.Fatalf("n=%d dense: %v", tc.n, err)
		}
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs := make([]float64, tc.n)
		xd := make([]float64, tc.n)
		ch.Solve(b, xs)
		dense.Solve(b, xd)
		for i := range xs {
			if !almostEqual(xs[i], xd[i], 1e-9*math.Max(1, math.Abs(xd[i]))) {
				t.Fatalf("n=%d x[%d]: sparse %v, dense %v", tc.n, i, xs[i], xd[i])
			}
		}
		if r := residual(m.Dense(), xs, b); r > 1e-10 {
			t.Fatalf("n=%d: sparse residual %v", tc.n, r)
		}
	}
}

// On a chain the minimum-degree order is the natural order and there is no
// fill, so the sparse factor must reproduce the dense one bit for bit: the
// same operations in the same summation order.
func TestSparseCholeskyChainBitwiseDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomLaplacian(rng, 50)
	pat := AnalyzeCholesky(m)
	for k, v := range pat.perm {
		if k != v {
			t.Fatalf("chain order perm[%d] = %d, want natural order", k, v)
		}
	}
	if got := pat.FactorNNZ(); got != 49 {
		t.Fatalf("chain factor has %d strict-lower nonzeros, want 49 (no fill)", got)
	}
	ch, err := pat.Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewCholesky(m.Dense())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 50)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xs := make([]float64, 50)
	xd := make([]float64, 50)
	ch.Solve(b, xs)
	dense.Solve(b, xd)
	for i := range xs {
		if xs[i] != xd[i] {
			t.Fatalf("x[%d]: sparse %v != dense %v", i, xs[i], xd[i])
		}
	}
}

// A star eliminates its leaves first, in ascending index (the tie rule),
// with no fill. Once a single leaf remains, hub and leaf both have degree 1
// and the hub's lower index wins the tie.
func TestAnalyzeCholeskyMinimumDegreeTieBreak(t *testing.T) {
	const n = 6
	hub := 3
	var items []Coord
	for i := 0; i < n; i++ {
		items = append(items, Coord{i, i, 10})
		if i != hub {
			items = append(items, Coord{i, hub, -1}, Coord{hub, i, -1})
		}
	}
	pat := AnalyzeCholesky(NewCSR(n, items))
	want := []int{0, 1, 2, 4, 3, 5}
	got := pat.perm
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("perm = %v, want %v", got, want)
		}
	}
	if pat.FactorNNZ() != n-1 {
		t.Fatalf("star factor nnz = %d, want %d", pat.FactorNNZ(), n-1)
	}
}

func TestAnalyzeCholeskyDeterministic(t *testing.T) {
	m := gridLaplacian(rand.New(rand.NewSource(23)), 305, 16)
	a, b := AnalyzeCholesky(m), AnalyzeCholesky(m)
	pa, pb := a.perm, b.perm
	for k := range pa {
		if pa[k] != pb[k] {
			t.Fatalf("two analyses differ at pivot %d: %d vs %d", k, pa[k], pb[k])
		}
	}
	// The ordering must beat no ordering by a wide margin on a grid: the
	// dense strict lower triangle has n(n−1)/2 entries.
	if nnz := a.FactorNNZ(); nnz > 305*304/2/5 {
		t.Fatalf("factor nnz %d: ordering is not reducing fill", nnz)
	}
}

func TestSparseFactorRejectsForeignPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pat := AnalyzeCholesky(gridLaplacian(rng, 20, 4))
	if _, err := pat.Factor(gridLaplacian(rng, 20, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("factor of a different pattern: err = %v, want ErrShape", err)
	}
	if _, err := pat.Factor(gridLaplacian(rng, 21, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("factor of a different size: err = %v, want ErrShape", err)
	}
}

func TestSparseCholeskySolveAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := gridLaplacian(rng, 40, 6)
	ch, err := AnalyzeCholesky(m).Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, 40)
	ch.Solve(b, want)
	ch.Solve(b, b)
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %v vs %v", i, b[i], want[i])
		}
	}
}

func TestCSRAddDiag(t *testing.T) {
	m := NewCSR(2, []Coord{{0, 0, 1}, {0, 1, -1}, {1, 0, -1}})
	c := m.Clone()
	c.AddDiag(0, 2)
	if c.Diag(0) != 3 || m.Diag(0) != 1 {
		t.Fatalf("AddDiag on a clone: clone %v, original %v", c.Diag(0), m.Diag(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddDiag on an unstored diagonal did not panic")
		}
	}()
	c.AddDiag(1, 1)
}

// Dynamic proof of the hot-path allocation discipline (DESIGN.md §18) for
// the sparse solve and the verified solve at the thermal network's size.
func TestSparseCholeskySolveZeroAllocs(t *testing.T) {
	m := gridLaplacian(rand.New(rand.NewSource(26)), 305, 16)
	ch, err := AnalyzeCholesky(m).Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := verifiedOf(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 305)
	for i := range b {
		b[i] = float64(i % 7)
	}
	x := make([]float64, 305)
	if allocs := testing.AllocsPerRun(100, func() { ch.Solve(b, x) }); allocs != 0 {
		t.Fatalf("SparseCholesky.Solve allocates %.1f per solve", allocs)
	}
	var solveErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.Solve(b, x); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Fatalf("VerifiedCholesky.Solve allocates %.1f per clean 305-node solve", allocs)
	}
}

// FuzzSparseCholesky runs the verified sparse solve over random weighted
// graph Laplacians with a fuzzed diagonal — NaN, ±Inf, negative, zero and
// denormal shifts included — and asserts each case either returns a typed
// error or a finite solution whose independently recomputed residual is
// under tolerance.
func FuzzSparseCholesky(f *testing.F) {
	edges := []byte{5, 0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 4, 9, 0, 4, 200}
	diag := func(vs ...float64) []byte {
		out := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		return out
	}
	f.Add(edges, diag(1, 0.5, 0.25, 2, 1))
	f.Add(edges, diag(0, 0, 0, 0, 0)) // singular Laplacian
	f.Add(edges, diag(1, math.NaN(), 1, 1, 1))
	f.Add(edges, diag(1, 1, math.Inf(1), 1, 1))
	f.Add(edges, diag(math.Inf(-1), 1, 1, 1, 1))
	f.Add(edges, diag(1, 1, 1, -3, 1))
	f.Add(edges, diag(1e-300, 1e300, 1, 1, 5e-324))

	f.Fuzz(func(t *testing.T, edges, diag []byte) {
		if len(edges) == 0 {
			return
		}
		n := 1 + int(edges[0])%12
		a := NewDense(n, n)
		var items []Coord
		add := func(i, j int, v float64) {
			a.Add(i, j, v)
			items = append(items, Coord{i, j, v})
		}
		for e := 1; e+2 < len(edges); e += 3 {
			i, j := int(edges[e])%n, int(edges[e+1])%n
			if i == j {
				continue
			}
			g := 0.01 + float64(edges[e+2])/16
			add(i, i, g)
			add(j, j, g)
			add(i, j, -g)
			add(j, i, -g)
		}
		for i := 0; i < n; i++ {
			add(i, i, fuzzFloat(diag, i))
		}
		v, err := verifiedOf(NewCSR(n, items))
		if err != nil {
			if !errors.Is(err, ErrNotSPD) && !errors.Is(err, ErrShape) {
				t.Fatalf("untyped factor error: %v", err)
			}
			return
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i + 1)
		}
		x := make([]float64, n)
		_, serr := v.Solve(b, x)
		checkSolveOutcome(t, serr, a, b, x)
	})
}

func BenchmarkAnalyzeCholesky305(b *testing.B) {
	m := gridLaplacian(rand.New(rand.NewSource(27)), 305, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeCholesky(m)
	}
}

func BenchmarkSparseCholeskyFactor305(b *testing.B) {
	m := gridLaplacian(rand.New(rand.NewSource(27)), 305, 16)
	pat := AnalyzeCholesky(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pat.Factor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseCholeskySolve305(b *testing.B) {
	m := gridLaplacian(rand.New(rand.NewSource(27)), 305, 16)
	ch, err := AnalyzeCholesky(m).Factor(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 305)
	x := make([]float64, 305)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Solve(rhs, x)
	}
}

func BenchmarkVerifiedCholeskySolve305(b *testing.B) {
	m := gridLaplacian(rand.New(rand.NewSource(27)), 305, 16)
	v, err := verifiedOf(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 305)
	x := make([]float64, 305)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Solve(rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}
