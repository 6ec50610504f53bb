package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one recorded call: a layer's public function, an op, or a
// phase of the traced run. Spans of one op share its Op identifier.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
	Err    string  `json:"err,omitempty"`
}

// tracer keeps spans in memory; writeFile writes them out once the run
// has ended. It is safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// count adds n to the named count of the traced run.
func (t *tracer) count(name string, n int) {
	t.mu.Lock()
	t.counts[name] += int64(n)
	t.mu.Unlock()
}

// total returns the named count.
func (t *tracer) total(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// do records fn as a span named name under parent and returns its
// error. A nil tracer runs fn untraced.
func (t *tracer) do(parent int, opID, name string, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: opID, Name: name})
	t.mu.Unlock()
	start := time.Since(t.t0).Seconds()
	err := fn(id)
	end := time.Since(t.t0).Seconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Start, s.End = start, end
	if err != nil {
		s.Err = err.Error()
	}
	t.mu.Unlock()
	return err
}

// durations returns the durations of every span named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// perLayerMetrics reads the per-layer metrics the traced run prints from
// the benchmark description at path. A layer the workload does not run
// reads 0.
func perLayerMetrics(path string) ([]layerMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var desc struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &desc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(desc.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no per_layer metrics", path)
	}
	return desc.PerLayer, nil
}
