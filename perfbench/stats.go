package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's high-water resident set size in MB (1e6
// bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// metric is one named reading with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints every metric as a "name value unit" line, then the
// result object restricted to the names in keep as the last line.
func (r *report) write(w io.Writer, t tally, keep []string) error {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range keep {
		m, ok := r.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s not measured", n)
		}
		out.Metrics[n] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
