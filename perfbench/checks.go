package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/circuit"
	"repro/internal/gds"
	"repro/internal/netex"
	"repro/internal/sa"
	"repro/internal/serve"
)

// The tolerances the checks hold outputs to.
const (
	// maxMeanDimErr is the mean relative W/L error against the
	// generator's drawn dimensions that the pipeline tests accept.
	maxMeanDimErr = 0.25
	// maxTransistorCountErr bounds the transistor count's relative
	// distance from the generator's count. The extraction is off by one
	// to three devices on most clean chips, so an exact match is not a
	// property of the method.
	maxTransistorCountErr = 0.10
	// minRepairShare is the share of injected faults the quality gate
	// must repair (DESIGN §7).
	minRepairShare = 0.9
	// maxPrechargeErrV is how far a bitline may sit from Vpre after the
	// precharge phase.
	maxPrechargeErrV = 0.05
	// minToleranceRatio is the OCSA-over-classic offset tolerance ratio
	// Section VI-D motivates the offset-cancelling design with.
	minToleranceRatio = 2.0
)

// checkError is a wrong output, as opposed to an operation the program
// failed to complete. overRepair marks a quality gate that repaired more
// slices than were injected.
type checkError struct {
	msg        string
	overRepair bool
}

func (e *checkError) Error() string { return "check: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// onlyOverRepair reports whether err is an over-repair check failure and
// nothing else, looking through joined errors.
func onlyOverRepair(err error) bool {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs := j.Unwrap()
		for _, e := range errs {
			if !onlyOverRepair(e) {
				return false
			}
		}
		return len(errs) > 0
	}
	var ce *checkError
	return errors.As(err, &ce) && ce.overRepair
}

// checkExtraction holds a clean extraction to Table I and the
// generator's ground truth: the topology, every bitline, the mean
// dimension error and the transistor count.
func checkExtraction(chip *chips.Chip, truth chipgen.GroundTruth, ext *netex.Result) error {
	if ext == nil {
		return checkf("%s: no extraction", chip.ID)
	}
	var errs []error
	if ext.Topology != chip.Topology {
		errs = append(errs, checkf("%s: topology %v, Table I says %v", chip.ID, ext.Topology, chip.Topology))
	}
	if ext.Bitlines != truth.Bitlines {
		errs = append(errs, checkf("%s: %d bitlines found, %d generated", chip.ID, ext.Bitlines, truth.Bitlines))
	}
	if e, err := meanDimErr(ext.Transistors, truth.Dims); err != nil {
		errs = append(errs, checkf("%s: %v", chip.ID, err))
	} else if e > maxMeanDimErr {
		errs = append(errs, checkf("%s: mean dimension error %.1f%% > %.0f%%", chip.ID, 100*e, 100*maxMeanDimErr))
	}
	got, want := len(ext.Transistors), truth.TransistorCount
	if want <= 0 || math.Abs(float64(got-want)) > maxTransistorCountErr*float64(want) {
		errs = append(errs, checkf("%s: %d transistors found, %d generated", chip.ID, got, want))
	}
	return errors.Join(errs...)
}

// meanDimErr is the mean relative error of the per-element mean W and L
// against the drawn dimensions. Every drawn element must be found.
func meanDimErr(ts []netex.Transistor, truth map[chips.Element]chips.Dims) (float64, error) {
	type acc struct {
		w, l float64
		n    int
	}
	by := map[chips.Element]*acc{}
	for _, t := range ts {
		a := by[t.Element]
		if a == nil {
			a = &acc{}
			by[t.Element] = a
		}
		a.w += t.WNM
		a.l += t.LNM
		a.n++
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("no drawn dimensions")
	}
	var sum float64
	for _, e := range chips.Elements() {
		want, ok := truth[e]
		if !ok {
			continue
		}
		a := by[e]
		if a == nil {
			return 0, fmt.Errorf("element %v not extracted", e)
		}
		sum += math.Abs(a.w/float64(a.n)-want.W)/want.W + math.Abs(a.l/float64(a.n)-want.L)/want.L
	}
	return sum / float64(2*len(truth)), nil
}

// checkServeReport holds a fresh fault-injected job's report to Table I
// and to the injector's count: the gate must repair at least
// minRepairShare of the injected slices and never more slices than were
// injected.
func checkServeReport(chip *chips.Chip, rep serve.Report) error {
	var errs []error
	if rep.Chip != chip.ID {
		errs = append(errs, checkf("report is for chip %q, want %s", rep.Chip, chip.ID))
	}
	if rep.Topology != chip.Topology.String() {
		errs = append(errs, checkf("%s: topology %s, Table I says %v", chip.ID, rep.Topology, chip.Topology))
	}
	inj, rp := rep.FaultsInjected, rep.Repairs
	if inj <= 0 {
		errs = append(errs, checkf("%s: no faults injected", chip.ID))
	} else if float64(rp) < minRepairShare*float64(inj) || rp > inj {
		errs = append(errs, &checkError{overRepair: rp > inj, msg: fmt.Sprintf(
			"%s: gate repaired %d slices of %d injected, want %.0f%%..100%%", chip.ID, rp, inj, 100*minRepairShare)})
	}
	return errors.Join(errs...)
}

// checkGDS parses an extracted.gds artifact and requires at least one
// structure with geometry.
func checkGDS(b []byte) error {
	lib, err := gds.Read(bytes.NewReader(b))
	if err != nil {
		return checkf("extracted.gds does not parse: %v", err)
	}
	for _, s := range lib.Structs {
		if len(s.Boundaries) > 0 {
			return nil
		}
	}
	return checkf("extracted.gds holds no geometry")
}

// checkHit holds a resubmission to the cache contract: HTTP 200, the
// cache_hit flag, and artifacts byte-identical to the fresh job's.
func checkHit(code int, st serve.JobStatus, fresh, hit map[string][]byte) error {
	if code != 200 || !st.CacheHit || st.State != serve.StateDone {
		return checkf("resubmission: HTTP %d cache_hit=%v state=%s, want 200 true done", code, st.CacheHit, st.State)
	}
	for name, want := range fresh {
		if !bytes.Equal(hit[name], want) {
			return checkf("resubmission: %s differs from the fresh job's", name)
		}
	}
	return nil
}

// checkRuns requires a fresh job to have run the pipeline exactly once:
// the server's run count before its submission and after its hits.
func checkRuns(before, after int64) error {
	if after-before != 1 {
		return checkf("serve.runs went from %d to %d over one fresh job and its hits", before, after)
	}
	return nil
}

// Event orders of Fig. 2c (classic) and Fig. 9b (OCSA).
var (
	classicEvents = []string{"charge-share", "latch-restore", "precharge-equalize"}
	ocsaEvents    = []string{"offset-cancel", "charge-share", "pre-sense", "restore", "precharge-equalize"}
)

// checkActivation reads one activation's waveforms: the bitlines must
// latch to the stored bit at the end of the restore phase and return to
// Vpre after precharge, and the events must follow the figure's order —
// on OCSA, offset cancellation first — each observed in the waveforms.
// sa.Simulate takes the events' names and times from the circuit
// schedule; only the Observed flags read the waveforms. The one event
// not required is OCSA pre-sense for a stored 0, whose sense nodes do not
// separate on any chip (a known fault of the OCSA netlist).
func checkActivation(topology chips.Topology, p circuit.Params, r *sa.Result) error {
	if r == nil {
		return checkf("no activation result")
	}
	want := classicEvents
	restore := "latch-restore"
	if topology == chips.OCSA {
		want, restore = ocsaEvents, "restore"
	}
	var errs []error
	if len(r.Events) != len(want) {
		errs = append(errs, checkf("%v: %d events, want %v", topology, len(r.Events), want))
	} else {
		for i, ev := range r.Events {
			if ev.Name != want[i] {
				errs = append(errs, checkf("%v: event %d is %s, want %s", topology, i, ev.Name, want[i]))
			}
			if i > 0 && ev.Start < r.Events[i-1].End {
				errs = append(errs, checkf("%v: event %s starts before %s ends", topology, ev.Name, r.Events[i-1].Name))
			}
		}
	}
	for _, ev := range r.Events {
		if !ev.Observed && !(topology == chips.OCSA && ev.Name == "pre-sense" && !p.CellValue) {
			errs = append(errs, checkf("%v: %s not observed in the waveforms for stored bit %v", topology, ev.Name, p.CellValue))
		}
	}
	bl, blb := r.Traces[circuit.NodeBL], r.Traces[circuit.NodeBLB]
	if bl == nil || blb == nil {
		return errors.Join(append(errs, checkf("%v: bitline waveforms missing", topology))...)
	}
	end := -1.0
	for _, ev := range r.Events {
		if ev.Name == restore {
			end = ev.End
		}
	}
	if end < 0 {
		errs = append(errs, checkf("%v: no %s phase", topology, restore))
	} else if high := bl.At(end-0.5e-9) > blb.At(end-0.5e-9); high != p.CellValue {
		errs = append(errs, checkf("%v: latched %v for stored bit %v", topology, high, p.CellValue))
	}
	for _, tr := range []struct {
		name string
		v    float64
	}{{"BL", bl.Final()}, {"BLB", blb.Final()}} {
		if math.Abs(tr.v-p.Vpre) > maxPrechargeErrV {
			errs = append(errs, checkf("%v: %s ends at %.3f V, want Vpre %.3f V", topology, tr.name, tr.v, p.Vpre))
		}
	}
	return errors.Join(errs...)
}

// checkTolerance requires the OCSA offset tolerance to be at least
// minToleranceRatio times the classic one.
func checkTolerance(classic, ocsa float64) error {
	if classic <= 0 || ocsa < minToleranceRatio*classic {
		return checkf("offset tolerance OCSA %.1f mV vs classic %.1f mV, want >= %.0fx",
			1000*ocsa, 1000*classic, minToleranceRatio)
	}
	return nil
}
