package core

import (
	"fmt"

	"tecfan/internal/linalg"
	"tecfan/internal/thermal"
)

// BandEstimator is the hardware-feasible temperature predictor of §III-E:
// instead of solving the full-chip system, it evaluates one core at a time
// against its conductance sub-matrix, treating everything outside the core
// (neighbour components, the spreader) as a frozen boundary read from the
// temperature sensors — "since the inter-core thermal impact is limited in
// tile-structured many-core architectures, we only evaluate the temperature
// of one core each time". Each evaluation is one solve of the M-node
// per-core system; CoreBandModel prices the band hardware that performs it.
type BandEstimator struct {
	nw *thermal.Network
	// Per-core factors of the SPD sub-system — the verified kind: every
	// EvalCore solve is residual-checked and a degraded solve is refined or
	// refused instead of feeding the optimizer a silently wrong temperature
	// prediction.
	factors []*linalg.VerifiedCholesky
	comps   [][]int // global component indices per core
	// boundary[core][i] lists couplings from local component i to nodes
	// outside the core (global node index, conductance).
	boundary [][][]coupling
	// rhs is the per-core solve scratch, sized to the largest core so
	// EvalCore stays allocation-free. Not safe for concurrent use — same
	// contract as the Network the estimator wraps.
	rhs []float64
}

type coupling struct {
	node int
	g    float64
}

// NewBandEstimator factors every core's sub-system from the network.
func NewBandEstimator(nw *thermal.Network) (*BandEstimator, error) {
	chip := nw.Chip
	full := nw.AssembleG(0) // boundary handling makes the fan level irrelevant here
	e := &BandEstimator{
		nw:       nw,
		factors:  make([]*linalg.VerifiedCholesky, chip.NumCores()),
		comps:    make([][]int, chip.NumCores()),
		boundary: make([][][]coupling, chip.NumCores()),
	}
	for core := 0; core < chip.NumCores(); core++ {
		comps := chip.CoreComponents(core)
		m := len(comps)
		local := make(map[int]int, m)
		for li, gi := range comps {
			local[gi] = li
		}
		var sub []linalg.Coord
		bounds := make([][]coupling, m)
		for li, gi := range comps {
			for gj := 0; gj < nw.NumNodes(); gj++ {
				v := full.At(gi, gj)
				if v == 0 {
					continue
				}
				if lj, in := local[gj]; in {
					sub = append(sub, linalg.Coord{Row: li, Col: lj, Val: v})
				} else {
					// Off-core coupling: conductance g = −G[i][j].
					bounds[li] = append(bounds[li], coupling{node: gj, g: -v})
				}
			}
		}
		a := linalg.NewCSR(m, sub)
		f, err := linalg.NewVerifiedCholesky(a, linalg.AnalyzeCholesky(a), 0)
		if err != nil {
			return nil, fmt.Errorf("core: factoring the sub-system of core %d: %w", core, err)
		}
		e.factors[core] = f
		e.comps[core] = comps
		e.boundary[core] = bounds
		if m > len(e.rhs) {
			e.rhs = make([]float64, m)
		}
	}
	return e, nil
}

// EvalCore predicts core's steady component temperatures given the die
// power vector (global indexing) and the full sensor temperature field used
// as the frozen boundary. out receives the M local temperatures in
// floorplan order; the returned slice aliases out.
func (e *BandEstimator) EvalCore(core int, power, sensorTemps, out []float64) ([]float64, error) {
	comps := e.comps[core]
	if len(out) != len(comps) {
		//lint:tecfan-ignore allocfree -- caller-contract defect path: formats the diagnosis at most once per failed call
		return nil, fmt.Errorf("core: out length %d, want %d", len(out), len(comps)) //lint:tecfan-ignore hotcall -- defect path: fmt runs at most once per failed call
	}
	rhs := e.rhs[:len(comps)]
	for li, gi := range comps {
		rhs[li] = power[gi]
		for _, c := range e.boundary[core][li] {
			rhs[li] += c.g * sensorTemps[c.node]
		}
	}
	if _, err := e.factors[core].Solve(rhs, out); err != nil {
		return nil, err
	}
	//lint:tecfan-ignore scratchalias -- documented contract: the returned slice aliases the caller's out argument
	return out, nil
}

// PeakCore returns the hottest predicted component of a core.
func (e *BandEstimator) PeakCore(core int, power, sensorTemps []float64) (comp int, tC float64, err error) {
	out := make([]float64, len(e.comps[core]))
	if _, err := e.EvalCore(core, power, sensorTemps, out); err != nil {
		return -1, 0, err
	}
	comp, tC = -1, out[0]
	for li, t := range out {
		if comp < 0 || t > tC {
			comp, tC = e.comps[core][li], t
		}
	}
	return comp, tC, nil
}
