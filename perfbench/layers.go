package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/denoise"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/layout"
	"repro/internal/measure"
	"repro/internal/netex"
	"repro/internal/register"
	"repro/internal/segment"
	"repro/internal/sem"
	"repro/internal/volume"
)

// pairSamples is how many consecutive slice pairs the decomposition
// aligns one by one for register.pair_ms.
const pairSamples = 8

// decompose runs one chip through the layers' public functions in
// pipeline order — generate, voxelize, acquire, denoise every slice, align
// the stack, assemble, reslice and segment, extract, score — with a span
// around each call. It materializes every stage, as the checkpointed path
// does; the quality gate and flat-fielding are internal to core and do
// not run here, so the decomposition times layers and does not reproduce
// RunCtx's output.
func decompose(tr *tracer, chip *chips.Chip, o core.Options) error {
	ctx := context.Background()
	id := chip.ID
	return tr.do(0, id, "decompose", func(root int) error {
		region, acq, err := acquire(tr, root, chip, o, nil)
		if err != nil {
			return err
		}
		window := region.Cell.Bounds()
		slices, err := denoiseStack(ctx, tr, root, id, acq.Slices, o)
		if err != nil {
			return err
		}
		reg := o.Register
		reg.Workers = o.Workers
		var aligned []*img.Gray
		if err := tr.do(root, id, "register.align_stack", func(int) (err error) {
			aligned, _, err = register.AlignStackCtx(ctx, slices, reg)
			return err
		}); err != nil {
			return err
		}
		step := len(slices) / (pairSamples + 1)
		for k := 1; k <= pairSamples && step > 0; k++ {
			i := k * step
			if err := tr.do(root, id, "register.pair", func(int) error {
				_, err := register.AlignRobustCtx(ctx, slices[i-1], slices[i], reg)
				return err
			}); err != nil {
				return err
			}
		}
		var vol *volume.Volume
		if err := tr.do(root, id, "volume.from_stack", func(int) (err error) {
			vol, err = volume.FromStack(aligned)
			return err
		}); err != nil {
			return err
		}
		var p *netex.Plan
		if err := tr.do(root, id, "core.plan_from_volume", func(int) (err error) {
			p, err = core.PlanFromVolumeCtx(ctx, vol, window, o)
			return err
		}); err != nil {
			return err
		}
		for _, l := range layout.Layers() {
			band, ok := chipgen.Band(l)
			if !ok || band.Y1-band.Y0 < 1 {
				continue
			}
			view, err := vol.PlanarAverage(band.Y0, band.Y1)
			if err != nil {
				return fmt.Errorf("planar view of %s: %w", l, err)
			}
			if err := tr.do(root, id, "segment.extract_layer", func(int) error {
				_, err := segment.ExtractLayer(view, o.MinComponentPx)
				return err
			}); err != nil {
				return err
			}
		}
		var ext *netex.Result
		if err := tr.do(root, id, "netex.extract", func(int) (err error) {
			ext, err = netex.Extract(p)
			return err
		}); err != nil {
			return err
		}
		return tr.do(root, id, "measure.score", func(int) error {
			measure.CompareToTruth(ext, region.Truth)
			return nil
		})
	})
}

// acquire generates, voxelizes and acquires one chip, then injects the
// fault plan when one is given, with a span around each call.
func acquire(tr *tracer, root int, chip *chips.Chip, o core.Options, plan *fault.Plan) (*chipgen.Region, *sem.Acquisition, error) {
	id := chip.ID
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	var region *chipgen.Region
	if err := tr.do(root, id, "chipgen.generate", func(int) (err error) {
		region, err = chipgen.Generate(cfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var mat *chipgen.MatVolume
	if err := tr.do(root, id, "chipgen.voxelize", func(int) (err error) {
		mat, err = chipgen.Voxelize(region.Cell, region.Cell.Bounds(), o.VoxelNM)
		return err
	}); err != nil {
		return nil, nil, err
	}
	semOpts := o.SEM
	semOpts.Detector = chip.Detector
	var acq *sem.Acquisition
	if err := tr.do(root, id, "sem.acquire", func(int) (err error) {
		acq, err = sem.AcquireStackCtx(context.Background(), mat, semOpts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	tr.count("sem.slices", len(acq.Slices))
	if plan == nil {
		return region, acq, nil
	}
	err := tr.do(root, id, "fault.inject", func(int) error {
		rep, err := fault.Inject(acq, *plan)
		if err == nil {
			tr.count("fault.injected", len(rep.Injected))
		}
		return err
	})
	return region, acq, err
}

// denoiseStack runs denoise.ChambolleCtx on every slice across one
// goroutine per worker, each call under its own span.
func denoiseStack(ctx context.Context, tr *tracer, parent int, id string, raw []*img.Gray, o core.Options) ([]*img.Gray, error) {
	out := make([]*img.Gray, len(raw))
	err := tr.do(parent, id, "denoise.stack", func(stack int) error {
		n := o.Workers
		if n < 1 {
			n = runtime.NumCPU()
		}
		next := make(chan int)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := range next {
					if errs[k] != nil {
						continue
					}
					errs[k] = tr.do(stack, id, "denoise.chambolle", func(int) (err error) {
						out[i], err = denoise.ChambolleCtx(ctx, raw[i], o.Denoise)
						return err
					})
				}
			}(k)
		}
		for i := range raw {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// layerTimes turns the decomposition's spans into the per-layer timing
// metrics: the median call of each layer, in the metric's unit.
func layerTimes(layers map[string]float64, tr *tracer) {
	for span, m := range map[string]struct {
		metric string
		scale  float64
	}{
		"denoise.chambolle":     {"denoise.slice_ms", 1e3},
		"denoise.stack":         {"denoise.stack_s", 1},
		"register.align_stack":  {"register.align_stack_s", 1},
		"register.pair":         {"register.pair_ms", 1e3},
		"sem.acquire":           {"sem.acquire_s", 1},
		"chipgen.generate":      {"chipgen.generate_ms", 1e3},
		"chipgen.voxelize":      {"chipgen.voxelize_ms", 1e3},
		"core.plan_from_volume": {"core.plan_from_volume_s", 1},
		"volume.from_stack":     {"volume.from_stack_ms", 1e3},
		"segment.extract_layer": {"segment.extract_layer_ms", 1e3},
		"netex.extract":         {"netex.extract_ms", 1e3},
		"measure.score":         {"measure.score_us", 1e6},
		"fault.inject":          {"fault.inject_ms", 1e3},
	} {
		layers[m.metric] = m.scale * median(tr.durations(span))
	}
	layers["sem.slices"] = float64(tr.total("sem.slices"))
	layers["fault.injected"] = float64(tr.total("fault.injected"))
}
