package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
)

// hitsPerJob is how many identical resubmissions follow each fresh job;
// every one must be answered from the cache.
const hitsPerJob = 3

// Fault seeds of the serve-faulted workload. They do not depend on
// --seed, so every run attempts the same jobs (--seed draws their order).
const (
	// timedFaultSeed is the default fault plan's seed (fault.DefaultPlan,
	// and what a faults request without fault_seed runs): every timed job
	// but the known-fault one injects with it.
	timedFaultSeed = 1
	// warmUpFaultSeed is the warm-up job's seed on the reference chip,
	// outside the timed set.
	warmUpFaultSeed = 2
	// knownFaultSeed is the reference chip's seed for the known-fault op
	// that opens every round: on it the quality gate repairs 16 slices of
	// the 15 injected, which DESIGN §7 rules out. The op fails that check
	// on every run; any other failure of it counts as an unexpected one.
	knownFaultSeed = 9
)

// serveWorkload drives an in-process serve.Server — a ckpt cache store
// and a journal in a scratch directory, one job at a time — over HTTP on
// a localhost listener. An op submits a fresh fault-injected
// default-profile job, waits for done, fetches report.json and
// extracted.gds, then resubmits the identical request hitsPerJob times.
// Every round runs on a server of its own, so its jobs are fresh.
type serveWorkload struct {
	rng     *rand.Rand
	scratch string
	dir     string

	srv    *serve.Server
	store  *ckpt.Store
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	fresh  int64 // fresh jobs accepted by the current server
	tr     *tracer
	// samples holds per-call serve timings in ms by metric name, and
	// counters the fresh jobs' deterministic pipeline counters.
	samples  map[string][]float64
	counters map[string]int64
}

func newServeWorkload(seed int64, scratch string) (*serveWorkload, error) {
	w := &serveWorkload{
		rng: rand.New(rand.NewSource(seed)), scratch: scratch,
		client: &http.Client{}, samples: map[string][]float64{}, counters: map[string]int64{},
	}
	if err := w.start(); err != nil {
		return nil, err
	}
	return w, nil
}

// start opens a fresh store and journal in a new directory and serves
// them.
func (w *serveWorkload) start() error {
	dir, err := os.MkdirTemp(w.scratch, "serve-")
	if err != nil {
		return err
	}
	store, err := ckpt.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{
		Workers: workers(), Jobs: 1, Cache: store,
		JournalPath: filepath.Join(dir, "journal"),
		Obs:         &obs.Observer{Metrics: obs.NewMetrics()},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return err
	}
	w.dir, w.srv, w.store = dir, srv, store
	w.http = &http.Server{Handler: serve.NewMux(srv), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.http.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.fresh = 0
	return nil
}

func (w *serveWorkload) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.http.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	w.client.CloseIdleConnections()
	err = errors.Join(err, w.srv.Close(ctx))
	w.srv = nil
	return err
}

// restart replaces the server with one on a fresh store and journal and
// removes the old one's.
func (w *serveWorkload) restart() error {
	old := w.dir
	if err := w.close(); err != nil {
		return err
	}
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	return w.start()
}

// warmUp runs one fresh job (with its hits) on the reference chip at a
// fault seed the timed rounds do not use.
func (w *serveWorkload) warmUp() error {
	_, err := w.job(chips.ByID(referenceChip), warmUpFaultSeed)
	return err
}

// round returns the known-fault op, then one job per chip but the
// reference chip in roundOrder. Rounds after the first start on a fresh
// server, outside every op's latency.
func (w *serveWorkload) round(r int) []op {
	ref := chips.ByID(referenceChip)
	ops := []op{{
		name: fmt.Sprintf("%s/fault_seed=%d", ref.ID, knownFaultSeed),
		run: func() (time.Duration, error) {
			if r > 0 {
				if err := w.restart(); err != nil {
					return 0, err
				}
			}
			return w.job(ref, knownFaultSeed)
		},
		knownFault: onlyOverRepair,
	}}
	for _, c := range roundOrder(w.rng, referenceChip) {
		ops = append(ops, op{name: fmt.Sprintf("%s/fault_seed=%d", c.ID, timedFaultSeed), run: func() (time.Duration, error) {
			return w.job(c, timedFaultSeed)
		}})
	}
	return ops
}

// job runs one op and returns its fresh submit→done latency.
func (w *serveWorkload) job(c *chips.Chip, faultSeed int64) (time.Duration, error) {
	opID := fmt.Sprintf("%s/%d", c.ID, faultSeed)
	body, err := json.Marshal(serve.Request{Chip: c.ID, Profile: "default", Faults: true, FaultSeed: faultSeed})
	if err != nil {
		return 0, err
	}
	var lat time.Duration
	err = w.tr.do(0, opID, "op", func(root int) error {
		before, err := w.runs()
		if err != nil {
			return err
		}
		t0 := time.Now()
		code, st, err := w.submit(root, opID, "serve.submit", body)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted || st.CacheHit {
			return fmt.Errorf("fresh submission answered HTTP %d cache_hit=%v", code, st.CacheHit)
		}
		w.fresh++
		if err := w.tr.do(root, opID, "serve.wait", func(int) error { return w.wait(st.ID) }); err != nil {
			return err
		}
		if st, err = w.status(st.ID); err != nil {
			return err
		}
		lat = time.Since(t0)
		if st.State != serve.StateDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		for k, v := range st.Counters {
			w.counters[k] += v
		}
		w.samples["serve.queue_wait_ms"] = append(w.samples["serve.queue_wait_ms"], st.QueueWaitMS)
		fresh, err := w.artifacts(root, opID, "serve.artifact_fetch", st.ID)
		if err != nil {
			return err
		}
		var rep serve.Report
		if err := json.Unmarshal(fresh[serve.ArtifactReport], &rep); err != nil {
			return checkf("report.json does not parse: %v", err)
		}
		errs := []error{checkServeReport(c, rep), checkGDS(fresh[serve.ArtifactGDS])}
		for h := 0; h < hitsPerJob; h++ {
			errs = append(errs, w.hit(root, opID, body, fresh))
		}
		after, err := w.runs()
		if err != nil {
			return err
		}
		errs = append(errs, checkRuns(before, after))
		return errors.Join(errs...)
	})
	return lat, err
}

// hit resubmits a finished request and checks the cache answered it.
func (w *serveWorkload) hit(root int, opID string, body []byte, fresh map[string][]byte) error {
	code, st, err := w.submit(root, opID, "serve.hit", body)
	if err != nil {
		return err
	}
	got := map[string][]byte{}
	if code == http.StatusOK {
		if got, err = w.artifacts(root, opID, "serve.hit_fetch", st.ID); err != nil {
			return err
		}
	}
	return checkHit(code, st, fresh, got)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// submit POSTs a job under a span named name and decodes the
// acknowledgement.
func (w *serveWorkload) submit(root int, opID, name string, body []byte) (int, serve.JobStatus, error) {
	var code int
	var st serve.JobStatus
	t := time.Now()
	err := w.tr.do(root, opID, name, func(int) error {
		resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(b))
		}
		return json.Unmarshal(b, &st)
	})
	w.samples[name+"_ms"] = append(w.samples[name+"_ms"], ms(time.Since(t)))
	return code, st, err
}

// wait follows the job's event stream, which the server ends once the
// job is terminal.
func (w *serveWorkload) wait(id string) error {
	resp, err := w.client.Get(w.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
	}
	return sc.Err()
}

func (w *serveWorkload) status(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	b, err := w.get("/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// artifacts fetches report.json and extracted.gds of a job, each under a
// span named name.
func (w *serveWorkload) artifacts(root int, opID, name, id string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, a := range []string{serve.ArtifactReport, serve.ArtifactGDS} {
		t := time.Now()
		err := w.tr.do(root, opID, name, func(int) (err error) {
			out[a], err = w.get("/v1/jobs/" + id + "/artifacts/" + a)
			return err
		})
		if err != nil {
			return nil, err
		}
		w.samples[name+"_ms"] = append(w.samples[name+"_ms"], ms(time.Since(t)))
	}
	return out, nil
}

// runs reads the server's pipeline run count from /healthz.
func (w *serveWorkload) runs() (int64, error) {
	b, err := w.get("/healthz")
	if err != nil {
		return 0, err
	}
	var h struct {
		Runs int64 `json:"runs"`
	}
	return h.Runs, json.Unmarshal(b, &h)
}

func (w *serveWorkload) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// storeBytes is the size of the checkpoint store plus the journal.
func (w *serveWorkload) storeBytes() (entries int, total int64, err error) {
	es, err := w.store.Scan()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range es {
		total += e.Bytes
	}
	fi, err := os.Stat(filepath.Join(w.dir, "journal"))
	if err != nil {
		return 0, 0, err
	}
	return len(es), total + fi.Size(), nil
}

// extra reports the checkpoint and journal growth per fresh job and the
// serve-side medians of the timed run.
func (w *serveWorkload) extra([]float64) map[string]float64 {
	out := map[string]float64{}
	if n, b, err := w.storeBytes(); err == nil && w.fresh > 0 {
		out["ckpt_mb_per_op"] = float64(b) / 1e6 / float64(w.fresh)
		out["ckpt_entries"] = float64(n)
	}
	for k, v := range w.samples {
		out[k] = median(v)
	}
	return out
}

// traced runs the warm-up job, then the warm-up's request untraced on a
// fresh server, then the same request and one round with spans around
// every HTTP call on another fresh server, so the untraced and traced
// jobs both start on an empty store in a warmed process. It then times
// the store's checkpoint reads and writes, checks worker-count identity
// on the reference chip's faulted run, and times acquisition and fault
// injection of every chip at its round's fault seed. The image layers'
// own timings come from extract-clean's traced run, which runs the same
// functions.
func (w *serveWorkload) traced(tr *tracer) (map[string]float64, []opResult, error) {
	layers := map[string]float64{}
	ref := chips.ByID(referenceChip)
	if err := w.warmUp(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := w.restart(); err != nil {
		return nil, nil, err
	}
	untraced, err := w.job(ref, warmUpFaultSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced %s: %w", ref.ID, err)
	}
	if err := w.restart(); err != nil {
		return nil, nil, err
	}
	w.tr, w.samples, w.counters = tr, map[string][]float64{}, map[string]int64{}
	refOp := op{name: fmt.Sprintf("%s/fault_seed=%d", ref.ID, warmUpFaultSeed), run: func() (time.Duration, error) {
		return w.job(ref, warmUpFaultSeed)
	}}
	var results []opResult
	for _, o := range append([]op{refOp}, w.round(0)...) {
		lat, err := o.run()
		results = append(results, o.outcome(lat, err))
		if o.name == refOp.name {
			layers["trace.untraced_wall_s"] = untraced.Seconds()
			layers["trace.traced_wall_s"] = lat.Seconds()
			layers["trace.overhead_pct"] = 100 * (lat.Seconds() - untraced.Seconds()) / untraced.Seconds()
		}
	}
	w.tr = nil
	for k, v := range w.samples {
		layers[k] = median(v)
	}
	counterMetrics(layers, w.counters)
	runs, err := w.runs()
	if err != nil {
		return nil, results, err
	}
	layers["serve.runs"] = float64(runs)
	n, b, err := w.storeBytes()
	if err != nil {
		return nil, results, err
	}
	layers["ckpt.writes"] = float64(n) / float64(w.fresh)
	layers["ckpt.bytes"] = float64(b) / float64(w.fresh)
	layers["ckpt.mb_per_job"] = float64(b) / 1e6 / float64(w.fresh)
	if err := w.timeCheckpoints(tr); err != nil {
		return nil, results, err
	}
	layers["ckpt.get_s"] = median(tr.durations("ckpt.get"))
	layers["ckpt.put_s"] = median(tr.durations("ckpt.put"))

	o := core.DefaultOptions()
	o.Workers = workers()
	if same, err := identity(ref, withFaults(o, warmUpFaultSeed)); err != nil {
		return nil, results, err
	} else if same {
		layers["identity.workers_match"] = 1
	}
	for _, c := range chips.All() {
		s := int64(timedFaultSeed)
		if c.ID == ref.ID {
			s = knownFaultSeed
		}
		if _, _, err := acquire(tr, 0, c, o, withFaults(o, s).Faults); err != nil {
			return nil, results, fmt.Errorf("inject %s: %w", c.ID, err)
		}
	}
	layerTimes(layers, tr)
	return layers, results, nil
}

// withFaults returns o with the default fault plan at the given seed, as
// serve resolves a faults request.
func withFaults(o core.Options, seed int64) core.Options {
	p := fault.DefaultPlan()
	p.Seed = seed
	o.Faults = &p
	return o
}

// timeCheckpoints reads every acquire and aligned checkpoint of the
// store and writes each into a scratch store, with a span around every
// Get and Put.
func (w *serveWorkload) timeCheckpoints(tr *tracer) error {
	es, err := w.store.Scan()
	if err != nil {
		return err
	}
	dst, err := ckpt.Open(filepath.Join(w.dir, "put"))
	if err != nil {
		return err
	}
	for _, e := range es {
		if e.Key.Stage != core.CkptAcquire && e.Key.Stage != core.CkptAligned {
			continue
		}
		var payload []byte
		if err := tr.do(0, e.Key.Unit, "ckpt.get", func(int) error {
			var st ckpt.State
			payload, st = w.store.Get(e.Key)
			if payload == nil {
				return fmt.Errorf("ckpt get %v: %v", e.Key, st)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := tr.do(0, e.Key.Unit, "ckpt.put", func(int) error { return dst.Put(e.Key, payload) }); err != nil {
			return err
		}
	}
	return nil
}
