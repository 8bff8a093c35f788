package linalg

import (
	"math"
	"math/bits"
	"sort"
)

// Sparse Cholesky for the thermal network's conductance systems (DESIGN.md
// §15). The compact 16-core network is 305×305 with ~2.6% of its entries
// stored; a dense factor spends almost all of its work multiplying zeros.
// The factorization here runs in three stages:
//
//   - AnalyzeCholesky orders the nodes by greedy minimum degree and records
//     the fill pattern of the factor (the symbolic analysis). It depends only
//     on the sparsity pattern, so every matrix sharing a pattern — the steady
//     G(fan) and the transient C/dt + G of one network — shares one analysis.
//   - CholeskyPattern.Factor computes the numeric factor column by column
//     (left-looking) into that fixed pattern.
//   - SparseCholesky.Solve is the permuted forward/back substitution, O(nnz
//     of the factor) and allocation-free.

// CholeskyPattern is the fill-reducing ordering and the symbolic factor of
// one symmetric sparsity pattern. It is immutable once built and may be
// shared by any number of factors.
type CholeskyPattern struct {
	n     int
	perm  []int // perm[k] is the original index of the k-th pivot
	iperm []int // inverse of perm

	// Strict lower triangle of L in CSC form over permuted indices, row
	// indices ascending within each column.
	colPtr []int
	rowIdx []int

	// Row view of the same entries for the left-looking update: row j of L
	// holds L[j,k] at lx[rowPos[t]] for t in rowPtr[j]..rowPtr[j+1], with
	// column k = rowCol[t] ascending.
	rowPtr []int
	rowCol []int
	rowPos []int

	// The pattern analysed, kept so Factor can refuse a matrix whose
	// entries the symbolic factor would silently drop.
	aRowPtr []int
	aColIdx []int
}

// AnalyzeCholesky computes a greedy minimum-degree ordering of a's
// symmetrized pattern and the fill pattern of its Cholesky factor. The
// ordering is deterministic: ties go to the lowest node index. Only the
// pattern of a is read, never its values.
func AnalyzeCholesky(a *CSR) *CholeskyPattern {
	n := a.N
	words := (n + 63) / 64
	// adj is the elimination graph as one bitset row per node. Eliminating
	// v turns its live neighbours into a clique; those neighbours are exactly
	// the sub-diagonal pattern of v's column of L.
	adj := make([]uint64, n*words)
	row := func(i int) []uint64 { return adj[i*words : (i+1)*words] }
	for r := 0; r < n; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if c := a.ColIdx[k]; c != r {
				adj[r*words+c/64] |= 1 << (c % 64)
				adj[c*words+r/64] |= 1 << (r % 64)
			}
		}
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = popcount(row(i))
	}
	p := &CholeskyPattern{
		n:      n,
		perm:   make([]int, 0, n),
		iperm:  make([]int, n),
		colPtr: make([]int, n+1),
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	var nbrs []int
	for k := 0; k < n; k++ {
		v := -1
		for i := 0; i < n; i++ {
			if alive[i] && (v < 0 || deg[i] < deg[v]) {
				v = i
			}
		}
		alive[v] = false
		p.perm = append(p.perm, v)
		nbrs = appendBits(nbrs[:0], row(v))
		p.rowIdx = append(p.rowIdx, nbrs...) // original indices for now
		p.colPtr[k+1] = len(p.rowIdx)
		rv := row(v)
		for _, u := range nbrs {
			ru := row(u)
			for w := range ru {
				ru[w] |= rv[w]
			}
			ru[u/64] &^= 1 << (u % 64)
			ru[v/64] &^= 1 << (v % 64)
			deg[u] = popcount(ru)
		}
	}
	for k, v := range p.perm {
		p.iperm[v] = k
	}
	for j := 0; j < n; j++ {
		col := p.rowIdx[p.colPtr[j]:p.colPtr[j+1]]
		for i, u := range col {
			col[i] = p.iperm[u]
		}
		sort.Ints(col)
	}

	p.rowPtr = make([]int, n+1)
	for _, i := range p.rowIdx {
		p.rowPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	p.rowCol = make([]int, len(p.rowIdx))
	p.rowPos = make([]int, len(p.rowIdx))
	next := append([]int(nil), p.rowPtr[:n]...)
	for k := 0; k < n; k++ {
		for q := p.colPtr[k]; q < p.colPtr[k+1]; q++ {
			i := p.rowIdx[q]
			p.rowCol[next[i]] = k
			p.rowPos[next[i]] = q
			next[i]++
		}
	}
	p.aRowPtr = append([]int(nil), a.RowPtr...)
	p.aColIdx = append([]int(nil), a.ColIdx...)
	return p
}

func popcount(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendBits appends the indices of the set bits of ws, ascending.
func appendBits(dst []int, ws []uint64) []int {
	for wi, w := range ws {
		for w != 0 {
			dst = append(dst, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// FactorNNZ returns the number of strictly-lower nonzeros of the factor.
func (p *CholeskyPattern) FactorNNZ() int { return len(p.rowIdx) }

func (p *CholeskyPattern) matches(a *CSR) bool {
	if a.N != p.n || len(a.ColIdx) != len(p.aColIdx) {
		return false
	}
	for i, v := range p.aRowPtr {
		if a.RowPtr[i] != v {
			return false
		}
	}
	for i, v := range p.aColIdx {
		if a.ColIdx[i] != v {
			return false
		}
	}
	return true
}

// SparseCholesky is the numeric factor P·A·Pᵀ = L·Lᵀ of one matrix over a
// shared CholeskyPattern.
type SparseCholesky struct {
	pat  *CholeskyPattern
	diag []float64 // diagonal of L, permuted order
	lx   []float64 // strict lower entries, aligned with pat.rowIdx
	y    []float64 // permuted solve scratch: Solve is not safe for concurrent use
}

// Factor computes the Cholesky factor of a, which must have exactly the
// pattern p was analysed from (ErrShape otherwise) and be symmetric: only
// the entries on or above the diagonal in pivot order are read. It returns
// ErrNotSPD if a pivot is not strictly positive and finite.
func (p *CholeskyPattern) Factor(a *CSR) (*SparseCholesky, error) {
	if !p.matches(a) {
		return nil, ErrShape
	}
	n := p.n
	c := &SparseCholesky{
		pat:  p,
		diag: make([]float64, n),
		lx:   make([]float64, len(p.rowIdx)),
		y:    make([]float64, n),
	}
	x := make([]float64, n) // dense accumulator for one column, kept zero between columns
	for j := 0; j < n; j++ {
		r := p.perm[j]
		for q := a.RowPtr[r]; q < a.RowPtr[r+1]; q++ {
			if i := p.iperm[a.ColIdx[q]]; i >= j {
				x[i] = a.Vals[q]
			}
		}
		// Left-looking update: subtract L[j:,k]·L[j,k] for every k < j with
		// L[j,k] ≠ 0, in ascending k (the same summation order as the dense
		// factor, so an unpermuted pattern reproduces it bit for bit).
		for t := p.rowPtr[j]; t < p.rowPtr[j+1]; t++ {
			k, pos := p.rowCol[t], p.rowPos[t]
			ljk := c.lx[pos]
			for q := pos; q < p.colPtr[k+1]; q++ {
				x[p.rowIdx[q]] -= c.lx[q] * ljk
			}
		}
		d := x[j]
		x[j] = 0
		if !finitePositive(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		c.diag[j] = d
		inv := 1 / d
		for q := p.colPtr[j]; q < p.colPtr[j+1]; q++ {
			i := p.rowIdx[q]
			c.lx[q] = x[i] * inv
			x[i] = 0
		}
	}
	return c, nil
}

// N returns the system size.
func (c *SparseCholesky) N() int { return c.pat.n }

// pivotCond is the pivot-based condition estimate cond₂(A) ≈ (max lᵢᵢ /
// min lᵢᵢ)²: crude but free, and exactly the data that degrades as A
// approaches indefiniteness.
func (c *SparseCholesky) pivotCond() float64 {
	mn, mx := math.Inf(1), 0.0
	for _, d := range c.diag {
		mn = math.Min(mn, d)
		mx = math.Max(mx, d)
	}
	if mn > 0 {
		return (mx / mn) * (mx / mn)
	}
	return math.MaxFloat64
}

// Solve computes x such that A·x = b. b is not modified; x must have length
// n and may alias b. Not safe for concurrent use (shared scratch).
//
//tecfan:hotpath
func (c *SparseCholesky) Solve(b, x []float64) {
	p := c.pat
	if len(b) != p.n || len(x) != p.n {
		panic(ErrShape)
	}
	y := c.y
	for k, v := range p.perm {
		y[k] = b[v]
	}
	// Forward substitution L·z = P·b, column-oriented.
	for j := 0; j < p.n; j++ {
		yj := y[j] / c.diag[j]
		y[j] = yj
		rows, vals := c.col(j)
		for q, i := range rows {
			y[i] -= vals[q] * yj
		}
	}
	// Back substitution Lᵀ·w = z: column j of L is row j of Lᵀ.
	for j := p.n - 1; j >= 0; j-- {
		s := y[j]
		rows, vals := c.col(j)
		for q, i := range rows {
			s -= vals[q] * y[i]
		}
		y[j] = s / c.diag[j]
	}
	for k, v := range p.perm {
		x[v] = y[k]
	}
}

// col returns the row indices and values of the strict lower part of column
// j of L, sliced to equal length so the solve loops run without bounds
// checks on the values.
//
//tecfan:hotpath
func (c *SparseCholesky) col(j int) ([]int, []float64) {
	lo, hi := c.pat.colPtr[j], c.pat.colPtr[j+1]
	rows := c.pat.rowIdx[lo:hi]
	return rows, c.lx[lo:hi][:len(rows)]
}
