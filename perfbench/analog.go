package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chips"
	"repro/internal/circuit"
	"repro/internal/sa"
	"repro/internal/spice"
)

// The offset-tolerance bisection window, as the sasim command runs it.
const (
	tolMaxDelta   = 0.3
	tolResolution = 0.01
)

// minP90Ops is the op count below which a run reports no 90th
// percentile: under it fewer than ten samples lie beyond the p90.
const minP90Ops = 100

// analogWorkload evaluates each chip's sense amplifier: a transient
// activation of the chip's topology at its nSA W/L for both stored bits,
// plus an offset-tolerance bisection. No image layer runs.
type analogWorkload struct {
	rng    *rand.Rand
	params map[string]circuit.Params
	// otherTol is the offset tolerance of the other topology at the
	// chip's parameters, computed during set-up: the reference each op's
	// own tolerance is held to.
	otherTol map[string]float64
}

func newAnalogWorkload(seed int64) (*analogWorkload, error) {
	w := &analogWorkload{
		rng: rand.New(rand.NewSource(seed)), params: map[string]circuit.Params{}, otherTol: map[string]float64{},
	}
	for _, c := range chips.All() {
		d, ok := c.Dim(chips.NSA)
		if !ok {
			return nil, fmt.Errorf("%s: no nSA dimensions", c.ID)
		}
		w.params[c.ID] = sa.ParamsForDims(d)
	}
	return w, nil
}

func other(t chips.Topology) chips.Topology {
	if t == chips.OCSA {
		return chips.Classic
	}
	return chips.OCSA
}

// warmUp computes every chip's reference tolerance and runs one op on the
// reference chip.
func (w *analogWorkload) warmUp() error {
	for _, c := range chips.All() {
		tol, err := sa.OffsetTolerance(other(c.Topology), w.params[c.ID], tolMaxDelta, tolResolution)
		if err != nil {
			return fmt.Errorf("%s reference tolerance: %w", c.ID, err)
		}
		w.otherTol[c.ID] = tol
	}
	return w.evaluate(nil, chips.ByID(referenceChip))
}

func (w *analogWorkload) round(int) []op {
	var ops []op
	for _, c := range roundOrder(w.rng, "") {
		ops = append(ops, op{name: c.ID, run: func() (time.Duration, error) {
			t := time.Now()
			err := w.evaluate(nil, c)
			return time.Since(t), err
		}})
	}
	return ops
}

// evaluate runs one op on chip c, with spans when tr is set.
func (w *analogWorkload) evaluate(tr *tracer, c *chips.Chip) error {
	p := w.params[c.ID]
	return tr.do(0, c.ID, "op", func(root int) error {
		for _, bit := range []bool{true, false} {
			q := p
			q.CellValue = bit
			var r *sa.Result
			if err := tr.do(root, c.ID, "sa.simulate", func(int) (err error) {
				r, err = sa.Simulate(c.Topology, q)
				return err
			}); err != nil {
				return err
			}
			if err := checkActivation(c.Topology, q, r); err != nil {
				return err
			}
		}
		var tol float64
		if err := tr.do(root, c.ID, "sa.offset_tolerance", func(int) (err error) {
			tol, err = sa.OffsetTolerance(c.Topology, p, tolMaxDelta, tolResolution)
			return err
		}); err != nil {
			return err
		}
		if c.Topology == chips.OCSA {
			return checkTolerance(w.otherTol[c.ID], tol)
		}
		return checkTolerance(tol, w.otherTol[c.ID])
	})
}

func (w *analogWorkload) extra(samples []float64) map[string]float64 {
	out := map[string]float64{}
	if len(samples) >= minP90Ops {
		out["op_p90_s"] = quantile(samples, 0.9)
	}
	return out
}

func (w *analogWorkload) close() error { return nil }

// traced runs one round untraced, the same round with spans around each
// sa call, then times Circuit.Transient alone on every chip's netlist for
// both stored bits.
func (w *analogWorkload) traced(tr *tracer) (map[string]float64, []opResult, error) {
	layers := map[string]float64{}
	if err := w.warmUp(); err != nil {
		return nil, nil, err
	}
	ops := w.round(0)
	t := time.Now()
	for _, o := range ops {
		if _, err := o.run(); err != nil {
			return nil, nil, fmt.Errorf("untraced %s: %w", o.name, err)
		}
	}
	untraced := time.Since(t)
	var results []opResult
	t = time.Now()
	for _, o := range ops {
		c := chips.ByID(o.name)
		s := time.Now()
		err := w.evaluate(tr, c)
		results = append(results, opResult{name: c.ID, latency: time.Since(s), err: err})
	}
	traced := time.Since(t)
	layers["trace.untraced_wall_s"] = untraced.Seconds()
	layers["trace.traced_wall_s"] = traced.Seconds()
	layers["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()

	for _, c := range chips.All() {
		for _, bit := range []bool{true, false} {
			q := w.params[c.ID]
			q.CellValue = bit
			build := circuit.Classic
			if c.Topology == chips.OCSA {
				build = circuit.OCSA
			}
			ckt, sched, err := build(q)
			if err != nil {
				return nil, results, err
			}
			// The options sa.Simulate runs the transient with.
			opts := spice.TransientOptions{
				Dt: 10e-12, Stop: sched.Stop, MaxNewton: 200, Tol: 1e-6,
				InitialV: circuit.InitialVoltages(ckt, q),
			}
			if err := tr.do(0, c.ID, "spice.transient", func(int) error {
				_, err := ckt.Transient(opts)
				return err
			}); err != nil {
				return nil, results, err
			}
		}
	}
	for span, metric := range map[string]string{
		"spice.transient":     "spice.transient_ms",
		"sa.simulate":         "sa.simulate_ms",
		"sa.offset_tolerance": "sa.offset_tolerance_ms",
	} {
		layers[metric] = 1e3 * median(tr.durations(span))
	}
	fmt.Println("# identity: not run (no reconstruction in this workload)")
	return layers, results, nil
}
