package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/serve"
)

// referenceChip is the cheapest of the six chips. The image workloads'
// warm-up op runs it untimed in every run, so their timed rounds leave it
// out; the traced runs time it untraced and traced for the overhead
// figure and run it at two worker counts for the identity check.
const referenceChip = "C5"

// cliDwellUS is hifidram extract's -dwell default. core.DefaultOptions
// (and with it serve's default profile) acquires at sem's 3 us instead.
const cliDwellUS = 12

// extractWorkload runs clean extractions through core.RunCtx with the
// CLI's default options on the streaming path: no checkpoint store, no
// faults, and one img.Pool shared across ops as extract -all shares it.
type extractWorkload struct {
	rng  *rand.Rand
	pool *img.Pool
}

func newExtractWorkload(seed int64) *extractWorkload {
	return &extractWorkload{rng: rand.New(rand.NewSource(seed)), pool: img.NewPool()}
}

// options are hifidram extract's defaults with the shared pool.
func (w *extractWorkload) options() core.Options {
	o := core.DefaultOptions()
	o.SEM.DwellUS = cliDwellUS
	o.Workers = workers()
	o.Pool = w.pool
	return o
}

// warmUp extracts the reference chip once, untimed.
func (w *extractWorkload) warmUp() error {
	_, err := w.extract(chips.ByID(referenceChip), w.options())
	return err
}

// round returns one extraction of each chip but the reference chip, in
// roundOrder.
func (w *extractWorkload) round(int) []op {
	var ops []op
	for _, c := range roundOrder(w.rng, referenceChip) {
		ops = append(ops, op{name: c.ID, run: func() (time.Duration, error) {
			t := time.Now()
			_, err := w.extract(c, w.options())
			return time.Since(t), err
		}})
	}
	return ops
}

// extract runs one chip and checks the result.
func (w *extractWorkload) extract(c *chips.Chip, o core.Options) (*core.Result, error) {
	res, err := core.RunCtx(context.Background(), c, o)
	if err != nil {
		return nil, err
	}
	return res, checkExtraction(c, res.Truth, res.Extraction)
}

func (w *extractWorkload) extra([]float64) map[string]float64 {
	st := w.pool.Stats()
	return map[string]float64{
		"img_pool_hits": float64(st.Hits), "img_pool_misses": float64(st.Misses),
		"img_pool_peak_live": float64(st.PeakLive),
	}
}

func (w *extractWorkload) close() error { return nil }

// traced runs the identity check on the reference chip, then the
// reference chip untraced on the pool the check has warmed (the overhead
// baseline), then the reference chip and one round with spans around
// each op and the program's own observer attached (its deterministic
// counters), then the layer decomposition of every chip.
func (w *extractWorkload) traced(tr *tracer) (map[string]float64, []opResult, error) {
	layers := map[string]float64{}
	ref := chips.ByID(referenceChip)

	same, err := identity(ref, w.options())
	if err != nil {
		return nil, nil, err
	}
	if same {
		layers["identity.workers_match"] = 1
	}
	t := time.Now()
	if _, err := w.extract(ref, w.options()); err != nil {
		return nil, nil, fmt.Errorf("untraced %s: %w", ref.ID, err)
	}
	untraced := time.Since(t)

	var results []opResult
	counters := map[string]int64{}
	for _, c := range append([]*chips.Chip{ref}, roundOrder(w.rng, ref.ID)...) {
		var lat time.Duration
		err := tr.do(0, c.ID, "op", func(int) error {
			opts := w.options()
			opts.Obs = &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTrace()}
			t := time.Now()
			res, err := w.extract(c, opts)
			lat = time.Since(t)
			if res != nil && res.Telemetry != nil {
				for k, v := range res.Telemetry.Counters {
					counters[k] += v
				}
			}
			return err
		})
		results = append(results, opResult{name: c.ID, latency: lat, err: err})
		if c.ID == ref.ID {
			layers["trace.untraced_wall_s"] = untraced.Seconds()
			layers["trace.traced_wall_s"] = lat.Seconds()
			layers["trace.overhead_pct"] = 100 * (lat.Seconds() - untraced.Seconds()) / untraced.Seconds()
		}
	}
	counterMetrics(layers, counters)
	st := w.pool.Stats()
	layers["img.pool.hits"] = float64(st.Hits)
	layers["img.pool.misses"] = float64(st.Misses)
	layers["img.pool.peak_live"] = float64(st.PeakLive)

	for _, c := range chips.All() {
		if err := decompose(tr, c, w.options()); err != nil {
			return nil, results, fmt.Errorf("decompose %s: %w", c.ID, err)
		}
	}
	layerTimes(layers, tr)
	return layers, results, nil
}

// identity runs chip at o.Workers and at one worker and reports whether
// the two results carry byte-identical plans, reports (every field but
// the telemetry, which holds timings) and extracted GDS exports. A clean
// run is checked like an op.
func identity(chip *chips.Chip, o core.Options) (bool, error) {
	var enc [2][]byte
	for i, n := range []int{o.Workers, 1} {
		o.Workers = n
		res, err := core.RunCtx(context.Background(), chip, o)
		if err != nil {
			return false, fmt.Errorf("identity %s at %d workers: %w", chip.ID, n, err)
		}
		if o.Faults == nil {
			err = checkExtraction(chip, res.Truth, res.Extraction)
		}
		if err != nil {
			return false, fmt.Errorf("identity %s at %d workers: %w", chip.ID, n, err)
		}
		js, err := json.Marshal([]any{res.Plan, res.Extraction, res.Repairs, res.Stats, res.Score,
			res.SliceCount, res.CostHours, res.ResidualDriftPx, res.AlignFallbacks})
		if err != nil {
			return false, fmt.Errorf("encode result: %w", err)
		}
		g, err := serve.ExtractedGDSBytes(res)
		if err != nil {
			return false, err
		}
		enc[i] = append(js, g...)
	}
	same := bytes.Equal(enc[0], enc[1])
	fmt.Printf("# identity %s workers=%d vs workers=1: plan, report and GDS byte-identical=%v\n", chip.ID, workers(), same)
	return same, nil
}

// counterMetrics maps the pipeline's deterministic counters, summed over
// a round, onto the per-layer metric names.
func counterMetrics(layers map[string]float64, c map[string]int64) {
	for from, to := range map[string]string{
		"denoise.iterations":       "denoise.iterations",
		"register.mi_evals":        "register.mi_evals",
		"register.align_fallbacks": "register.align_fallbacks",
		"quality.repaired":         "core.quality.repaired",
		"quality.mi_evals":         "core.quality.mi_evals",
	} {
		layers[to] = float64(c[from])
	}
}
