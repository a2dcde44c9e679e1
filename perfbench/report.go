package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind a percentile or mean (0: not a sample
	// statistic).
	N int
	// Note qualifies the number in the human-readable report.
	Note string
}

// result is everything one run reports.
type result struct {
	Workload  string
	Trace     bool
	Attempted int
	// Failed counts operations that errored, were refused or returned an
	// answer that failed its reference check (Mismatched is the subset of
	// those that answered wrongly).
	Failed     int
	Mismatched int
	// Gated are the metrics the JSON line carries (end-to-end untraced,
	// per-layer traced); Info are printed only in the report.
	Gated []metric
	Info  []metric
	// Failures samples mismatch descriptions for the report.
	Failures []string
}

func (r *result) gate(name, unit string, v float64, n int, note string) {
	r.Gated = append(r.Gated, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

func (r *result) info(name, unit string, v float64, n int, note string) {
	r.Info = append(r.Info, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

// fail records a failed operation; mismatch marks a wrong answer.
func (r *result) fail(mismatch bool, format string, args ...any) {
	r.Failed++
	if mismatch {
		r.Mismatched++
	}
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Mismatched == 0 }

// write prints the human-readable report and, last, the JSON result line.
func (r *result) write(w io.Writer) error {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# perfbench workload=%s mode=%s\n", r.Workload, mode)
	for _, m := range append(append([]metric(nil), r.Gated...), r.Info...) {
		line := fmt.Sprintf("%-28s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " " + m.Note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-28s %14.4f %-6s failed=%d attempted=%d mismatched=%d\n",
		"failed_share", share, "share", r.Failed, r.Attempted, r.Mismatched)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "# failure:", f)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, make(map[string]jm)}
	for _, m := range r.Gated {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", m.Name)
		}
		out.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// samples collects latencies of one operation class.
type samples []time.Duration

// pct returns the p-th percentile (0..100) by linear interpolation between
// closest ranks, in milliseconds.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append(samples(nil), s...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	pos := p / 100 * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return ms(v[lo]) + frac*(ms(v[hi])-ms(v[lo]))
}

// sliceCount is how many consecutive parts a run's samples split into for the
// gated statistics.
const sliceCount = 5

// slicedPct is the median, over the run's samples split into sliceCount
// consecutive equal parts, of each part's p-th percentile. A stretch of the
// shared machine running slow that covers under half the run does not move
// it; the samples must be in the order they were taken.
func (s samples) slicedPct(p float64) float64 {
	if len(s) < sliceCount {
		return s.pct(p)
	}
	var parts []float64
	for i := 0; i < sliceCount; i++ {
		parts = append(parts, s[i*len(s)/sliceCount:(i+1)*len(s)/sliceCount].pct(p))
	}
	return median(parts)
}

// slicedRate is the median, over the same parts, of operations completed
// per second of their summed latency: a closed loop's completion rate.
func (s samples) slicedRate() float64 {
	var parts []float64
	for i := 0; i < sliceCount; i++ {
		part := s[i*len(s)/sliceCount : (i+1)*len(s)/sliceCount]
		var sum time.Duration
		for _, d := range part {
			sum += d
		}
		parts = append(parts, float64(len(part))/sum.Seconds())
	}
	return median(parts)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile metrics need this many samples per run (p90: 100, p99: 1000),
// so that at least ten samples lie beyond the reported percentile.
func minSamples(p float64) int { return int(math.Round(10 / (1 - p/100))) }

// designLatency reports one design's latency from its samples grouped by
// query template. Gated is <design>_gm_p50_ms, the geometric mean over the
// templates of each template's median: templates cost different amounts,
// and the pooled median jumps between their modes from run to run. The
// pooled median and tail percentile are printed; the tail moves with the
// shared machine's slow stretches by more than a regression bound allows.
func (r *result) designLatency(design string, byTmpl map[string]samples, tail float64) {
	var pooled samples
	logSum := 0.0
	for _, s := range byTmpl {
		pooled = append(pooled, s...)
		logSum += math.Log(s.pct(50))
	}
	r.gate(design+"_gm_p50_ms", "ms", math.Exp(logSum/float64(len(byTmpl))), len(pooled),
		fmt.Sprintf("geometric mean of %d templates' medians", len(byTmpl)))
	r.infoPair(design, pooled, tail)
}

// tailInfo prints a class's tail percentile over the whole run.
func (r *result) tailInfo(prefix string, s samples, tail float64) {
	note := ""
	if len(s) < minSamples(tail) {
		note = fmt.Sprintf("(below the %d samples p%.0f needs)", minSamples(tail), tail)
	}
	r.info(fmt.Sprintf("%s_p%.0f_ms", prefix, tail), "ms", s.pct(tail), len(s), note)
}

// infoPair prints a class's pooled median and tail percentile.
func (r *result) infoPair(prefix string, s samples, tail float64) {
	r.info(prefix+"_p50_ms", "ms", s.pct(50), len(s), "")
	r.tailInfo(prefix, s, tail)
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// allMetrics reports the pooled latency of every operation and the rate the
// workload sustained.
func (r *result) allMetrics(all samples, tail, rate float64, rateNote string) {
	note := fmt.Sprintf("median of %d slices' p%.0f", sliceCount, tail)
	if len(all)/sliceCount < minSamples(tail) {
		note += fmt.Sprintf(" (slices below the %d samples it needs)", minSamples(tail))
	}
	// The pooled median falls between the designs' modes, so it is shown but
	// not gated; the per-design medians are.
	r.info("all_p50_ms", "ms", all.pct(50), len(all), "every operation")
	r.gate("all_tail_ms", "ms", all.slicedPct(tail), len(all), note)
	r.gate("capacity_qps", "1/s", rate, 0, rateNote)
}
