package main

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/circuit"
	"repro/internal/gds"
	"repro/internal/netex"
	"repro/internal/sa"
	"repro/internal/serve"
	"repro/internal/spice"
)

// wantCheck fails the test unless err is a check failure.
func wantCheck(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: accepted", what)
	} else if !isCheckError(err) {
		t.Errorf("%s: rejected with a non-check error: %v", what, err)
	}
}

func goodExtraction(chip *chips.Chip) (chipgen.GroundTruth, *netex.Result) {
	truth := chipgen.GroundTruth{
		Bitlines: 8, TransistorCount: 20,
		Dims: map[chips.Element]chips.Dims{chips.NSA: {W: 100, L: 26}, chips.PSA: {W: 80, L: 30}},
	}
	ext := &netex.Result{Topology: chip.Topology, Bitlines: 8}
	for i := 0; i < 10; i++ {
		ext.Transistors = append(ext.Transistors,
			netex.Transistor{Element: chips.NSA, WNM: 100, LNM: 26},
			netex.Transistor{Element: chips.PSA, WNM: 80, LNM: 30})
	}
	return truth, ext
}

func TestCheckExtraction(t *testing.T) {
	chip := chips.ByID("C5")
	truth, ext := goodExtraction(chip)
	if err := checkExtraction(chip, truth, ext); err != nil {
		t.Fatalf("good extraction rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*chipgen.GroundTruth, *netex.Result)
	}{
		{"wrong topology", func(_ *chipgen.GroundTruth, e *netex.Result) { e.Topology = chips.OCSA }},
		{"missing bitline", func(_ *chipgen.GroundTruth, e *netex.Result) { e.Bitlines = 7 }},
		{"dimensions 40% off", func(_ *chipgen.GroundTruth, e *netex.Result) {
			for i := range e.Transistors {
				e.Transistors[i].WNM *= 1.4
				e.Transistors[i].LNM *= 1.4
			}
		}},
		{"transistor count 20% high", func(g *chipgen.GroundTruth, _ *netex.Result) { g.TransistorCount = 16 }},
		{"element missing", func(_ *chipgen.GroundTruth, e *netex.Result) {
			for i := range e.Transistors {
				e.Transistors[i] = netex.Transistor{Element: chips.NSA, WNM: 100, LNM: 26}
			}
		}},
	} {
		truth, ext := goodExtraction(chip)
		tc.mutate(&truth, ext)
		wantCheck(t, tc.name, checkExtraction(chip, truth, ext))
	}
	wantCheck(t, "no extraction", checkExtraction(chip, truth, nil))
}

func TestCheckServeReport(t *testing.T) {
	chip := chips.ByID("A5")
	good := serve.Report{Chip: "A5", Topology: chip.Topology.String(), FaultsInjected: 20, Repairs: 20}
	for _, rp := range []int{18, 20} {
		r := good
		r.Repairs = rp
		if err := checkServeReport(chip, r); err != nil {
			t.Errorf("%d repairs of 20 rejected: %v", rp, err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Report)
	}{
		{"wrong chip", func(r *serve.Report) { r.Chip = "B5" }},
		{"wrong topology", func(r *serve.Report) { r.Topology = chips.Classic.String() }},
		{"too few repairs", func(r *serve.Report) { r.Repairs = 17 }},
		{"more repairs than faults", func(r *serve.Report) { r.Repairs = 21 }},
		{"no faults injected", func(r *serve.Report) { r.FaultsInjected, r.Repairs = 0, 0 }},
	} {
		r := good
		tc.mutate(&r)
		wantCheck(t, tc.name, checkServeReport(chip, r))
	}
}

func TestCheckGDS(t *testing.T) {
	write := func(lib *gds.Library) []byte {
		var buf bytes.Buffer
		if err := lib.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	lib := gds.NewLibrary("L")
	lib.Structs = []gds.Structure{{Name: "S", Boundaries: []gds.Boundary{{Layer: 1, XY: [][2]int32{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}}}}
	good := write(lib)
	if err := checkGDS(good); err != nil {
		t.Fatalf("good GDS rejected: %v", err)
	}
	wantCheck(t, "truncated", checkGDS(good[:len(good)/2]))
	wantCheck(t, "garbage", checkGDS([]byte("not a gds stream")))
	empty := gds.NewLibrary("L")
	empty.Structs = []gds.Structure{{Name: "S"}}
	wantCheck(t, "no geometry", checkGDS(write(empty)))
}

func TestCheckHit(t *testing.T) {
	fresh := map[string][]byte{"report.json": []byte("{}"), "extracted.gds": {1, 2, 3}}
	same := map[string][]byte{"report.json": []byte("{}"), "extracted.gds": {1, 2, 3}}
	st := serve.JobStatus{State: serve.StateDone, CacheHit: true}
	if err := checkHit(200, st, fresh, same); err != nil {
		t.Fatalf("good hit rejected: %v", err)
	}
	wantCheck(t, "HTTP 202", checkHit(202, st, fresh, same))
	miss := st
	miss.CacheHit = false
	wantCheck(t, "cache_hit unset", checkHit(200, miss, fresh, same))
	queued := st
	queued.State = serve.StateQueued
	wantCheck(t, "not done", checkHit(200, queued, fresh, same))
	wantCheck(t, "artifact differs", checkHit(200, st, fresh,
		map[string][]byte{"report.json": []byte("{}"), "extracted.gds": {1, 2, 4}}))
	wantCheck(t, "artifact missing", checkHit(200, st, fresh, map[string][]byte{"report.json": []byte("{}")}))
}

func TestOnlyOverRepair(t *testing.T) {
	chip := chips.ByID("C5")
	over := serve.Report{Chip: "C5", Topology: chip.Topology.String(), FaultsInjected: 15, Repairs: 16}
	if err := checkServeReport(chip, over); !onlyOverRepair(err) {
		t.Errorf("16 repairs of 15: %v not taken for the over-repair fault", err)
	}
	under := over
	under.Repairs = 10
	wrong := over
	wrong.Topology = chips.OCSA.String()
	for name, err := range map[string]error{
		"too few repairs":             checkServeReport(chip, under),
		"over-repair, wrong topology": checkServeReport(chip, wrong),
		"over-repair, hit differs": errors.Join(checkServeReport(chip, over),
			checkHit(200, serve.JobStatus{State: serve.StateDone}, nil, nil)),
		"program error": errors.New("job ended failed"),
		"no error":      nil,
	} {
		if onlyOverRepair(err) {
			t.Errorf("%s: taken for the over-repair fault", name)
		}
	}
}

func TestCheckRuns(t *testing.T) {
	if err := checkRuns(6, 7); err != nil {
		t.Fatalf("one run rejected: %v", err)
	}
	wantCheck(t, "the job ran twice", checkRuns(5, 7))
	wantCheck(t, "the job never ran", checkRuns(7, 7))
}

func TestCheckActivation(t *testing.T) {
	for _, topo := range []chips.Topology{chips.Classic, chips.OCSA} {
		for _, bit := range []bool{true, false} {
			p := circuit.DefaultParams()
			p.CellValue = bit
			sim := func() *sa.Result {
				r, err := sa.Simulate(topo, p)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			if err := checkActivation(topo, p, sim()); err != nil {
				t.Fatalf("%v bit %v: good activation rejected: %v", topo, bit, err)
			}
			flipped := p
			flipped.CellValue = !bit
			wantCheck(t, "latched the other bit", checkActivation(topo, flipped, sim()))

			r := sim()
			bl := r.Traces[circuit.NodeBL]
			v := append([]float64(nil), bl.V...)
			v[len(v)-1] += 0.2
			r.Traces[circuit.NodeBL] = &spice.Trace{Node: bl.Node, T: bl.T, V: v}
			wantCheck(t, "BL not back at Vpre", checkActivation(topo, p, r))

			r = sim()
			r.Events[0], r.Events[1] = r.Events[1], r.Events[0]
			wantCheck(t, "events out of order", checkActivation(topo, p, r))

			r = sim()
			r.Events = r.Events[:len(r.Events)-1]
			wantCheck(t, "event missing", checkActivation(topo, p, r))

			for i, ev := range sim().Events {
				if topo == chips.OCSA && ev.Name == "pre-sense" && !bit {
					continue
				}
				r = sim()
				r.Events[i].Observed = false
				wantCheck(t, ev.Name+" not observed", checkActivation(topo, p, r))
			}
		}
	}
	wantCheck(t, "no result", checkActivation(chips.Classic, circuit.DefaultParams(), nil))
}

func TestCheckTolerance(t *testing.T) {
	if err := checkTolerance(0.1125, 0.3); err != nil {
		t.Fatalf("good tolerances rejected: %v", err)
	}
	wantCheck(t, "OCSA under 2x", checkTolerance(0.2, 0.3))
	wantCheck(t, "classic tolerance zero", checkTolerance(0, 0.3))
}

func TestQuantiles(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}
