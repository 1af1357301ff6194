package recompute

import (
	"fmt"

	"repro/internal/opgraph"
)

// OpCost gives the execution cost of recomputing one operator: its forward
// latency plus the collective time of Eq 1 for the tensors exchanged between
// adjacent recomputed operators.
type OpCost struct {
	Latency  float64
	CommTime float64
}

// BuildOptions enumerates the recomputation choices of one stage — every
// subset of recomputable operators (the "Type 0/1/2..." strategies of
// Fig 7) — and returns the pareto frontier. `layers` scales per-layer costs
// to the stage; `cost` supplies per-operator recompute latencies.
func BuildOptions(g *opgraph.LayerGraph, cost func(opgraph.Op) OpCost, layers int) ([]Option, error) {
	ops := g.Ops
	if len(ops) > 16 {
		return nil, fmt.Errorf("recompute: too many operators (%d) for subset enumeration", len(ops))
	}
	if layers <= 0 {
		return nil, fmt.Errorf("recompute: stage has no layers")
	}
	boundary := g.BoundaryBytes()
	// Price each recomputable operator once; a subset that touches any
	// other operator is not a choice.
	extraOf := make([]float64, len(ops))
	fixed, subsets := 0, 1<<len(ops)
	for i, op := range ops {
		if !op.Recomputable {
			fixed |= 1 << i
			subsets >>= 1
			continue
		}
		c := cost(op)
		extraOf[i] = c.Latency + c.CommTime
	}
	raw := make([]Option, 0, subsets)
	for mask := 0; mask < 1<<len(ops); mask++ {
		if mask&fixed != 0 {
			continue
		}
		var ckpt, extra float64
		for i, op := range ops {
			if mask&(1<<i) != 0 {
				extra += extraOf[i]
			} else {
				ckpt += op.CheckpointBytes
			}
		}
		raw = append(raw, Option{
			CkptBytesPerMB: (ckpt + boundary) * float64(layers),
			ExtraBwdTime:   extra * float64(layers),
		})
	}
	front := ParetoFront(raw)
	if len(front) == 0 {
		return nil, fmt.Errorf("recompute: empty pareto frontier")
	}
	return front, nil
}
