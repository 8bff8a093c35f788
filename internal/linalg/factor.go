package linalg

import "math"

// Cholesky holds the dense lower-triangular factor L of an SPD matrix
// A = L·Lᵀ. No model solves through it: it is the reference the sparse
// factor's differential tests compare against.
type Cholesky struct {
	n int
	l *Dense
	// ut holds Lᵀ so the back substitution reads rows instead of striding
	// down columns: at the n≈300 of a per-die RC network the column walk
	// touches a new cache line per element. Values are identical to l's,
	// so the solve is bitwise-unchanged.
	ut *Dense
}

// NewCholesky factors the SPD matrix a. It returns ErrNotSPD if a pivot is
// not strictly positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	l := a.Clone()
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if !finitePositive(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s*inv)
		}
	}
	// Zero the strictly-upper part so the factor is clean for callers that
	// inspect it.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	ut := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			ut.Set(j, i, l.At(i, j))
		}
	}
	return &Cholesky{n: n, l: l, ut: ut}, nil
}

// Solve computes x such that A·x = b. b is not modified; x must have length n
// and may alias b.
func (c *Cholesky) Solve(b, x []float64) {
	if len(b) != c.n || len(x) != c.n {
		panic(ErrShape)
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	l := c.l
	// Forward substitution L·y = b.
	for i := 0; i < c.n; i++ {
		s := x[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back substitution Lᵀ·x = y, reading rows of the stored transpose.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		urow := c.ut.Row(i)
		for k := i + 1; k < c.n; k++ {
			s -= urow[k] * x[k]
		}
		x[i] = s / urow[i]
	}
}

// N returns the system size.
func (c *Cholesky) N() int { return c.n }
