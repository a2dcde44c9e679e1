package main

import (
	"fmt"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/loose"
	"enrichdb/internal/progressive"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/tight"
)

// layers accumulates the traced run's per-layer numbers: self times in
// milliseconds and counts, summed over the measured phase. Every span the
// benchmark records wraps one call into one module's public function.
type layers struct {
	ms     map[string]float64
	counts map[string]float64
	timer  *mlTimer
	// mlBase is the inference counter state when the measured phase began.
	mlBase map[string][2]int64
	// instrument is time the benchmark's own bookkeeping spent inside
	// traced operations (the warm-share probe); it is taken off their wall.
	instrument time.Duration
}

// closedPartition lists the self-time metrics that partition a traced
// closed-loop operation's wall time; servePartition does the same for a
// served request's latency from its due time. trace.unaccounted_ms is
// what a partition leaves over.
var (
	closedPartition = []string{
		"storage.session_open_ms",
		"sqlparser.parse_ms", "engine.analyze_ms", "engine.build_ms", "engine.exec_ms",
		"loose.probe_ms", "loose.build_requests_ms", "loose.enrich_batch_ms", "loose.writeback_ms",
		"tight.rewrite_ms", "tight.self_ms",
		"progressive.setup_ms", "progressive.plan_ms", "progressive.enrich_ms", "progressive.other_ms", "ivm.delta_ms",
		"ml.total_ms",
	}
	servePartition = []string{
		"loadgen.queue_ms", "sqlparser.parse_ms", "engine.analyze_ms", "engine.build_ms",
		"server.exec_ms", "ml.total_ms", "wire.overhead_ms",
	}
)

// timeMetrics and countMetrics are every per-layer metric besides the
// per-kind inference ones; each workload prints all of them, zero where its
// operations do not reach the layer.
var (
	timeMetrics = []string{
		"storage.session_open_ms", "storage.insert_ms",
		"sqlparser.parse_ms", "engine.analyze_ms", "engine.build_ms", "engine.exec_ms",
		"loose.probe_ms", "loose.build_requests_ms", "loose.enrich_batch_ms", "loose.writeback_ms",
		"enrich.state_ms", "tight.rewrite_ms", "tight.self_ms",
		"progressive.setup_ms", "progressive.plan_ms", "progressive.enrich_ms", "progressive.other_ms", "ivm.delta_ms",
		"ml.total_ms", "server.exec_ms", "server.admit_wait_ms", "wire.overhead_ms", "loadgen.queue_ms",
	}
	countMetrics = []string{
		"engine.rows_out", "loose.probe_tuples", "loose.requests", "enrich.executions",
		"tight.udf_calls", "progressive.epochs", "progressive.enrichments_to_f1", "ivm.delta_rows",
	}
)

func newLayers(timer *mlTimer) *layers {
	return &layers{ms: make(map[string]float64), counts: make(map[string]float64), timer: timer}
}

// span times fn and adds its duration, minus the inference time that ran
// inside it, to the named self-time metric.
func (l *layers) span(name string, fn func() error) error {
	ml0 := l.timer.total()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0) - (l.timer.total() - ml0)
	l.ms[name] += ms(d)
	return err
}

func (l *layers) add(name string, n float64) { l.counts[name] += n }

// startML marks the beginning of the measured phase for inference counters.
func (l *layers) startML() {
	l.mlBase = make(map[string][2]int64)
	for k, st := range l.timer.kinds {
		l.mlBase[k] = [2]int64{st.calls.Load(), st.nanos.Load()}
	}
}

// mlTotals returns per-kind (calls, ms) since startML.
func (l *layers) mlTotals() map[string][2]float64 {
	out := make(map[string][2]float64)
	for k, st := range l.timer.kinds {
		b := l.mlBase[k]
		out[k] = [2]float64{float64(st.calls.Load() - b[0]), float64(st.nanos.Load()-b[1]) / 1e6}
	}
	return out
}

// report adds every per-layer metric, normalized per measured operation,
// plus the accounting of traced time: the part of the traced wall the
// partition's phases leave unexplained (trace.unaccounted_ms) and what
// tracing cost over the untraced twin of the run (trace.overhead_ms).
func (l *layers) report(r *result, partition []string, ops int, tracedWall, untracedWall time.Duration) {
	per := func(v float64) float64 { return v / float64(ops) }
	mlt := l.mlTotals()
	l.ms["ml.total_ms"] = 0
	for _, k := range mlKinds {
		l.ms["ml.total_ms"] += mlt[k][1]
	}
	for _, name := range timeMetrics {
		r.gate(name, "ms", per(l.ms[name]), ops, "per op")
	}
	for _, name := range countMetrics {
		r.gate(name, "count", per(l.counts[name]), ops, "per op")
	}
	for _, k := range mlKinds {
		r.gate("ml."+k+".calls", "count", per(mlt[k][0]), ops, "per op")
		r.gate("ml."+k+".ms", "ms", per(mlt[k][1]), ops, "per op")
	}
	warm := 0.0
	if c := l.counts["enrich.candidates"]; c > 0 {
		warm = 1 - l.counts["enrich.candidates_cold"]/c
	}
	r.gate("enrich.warm_share", "share", warm, int(l.counts["enrich.candidates"]), "of loose probe candidates already fully enriched")
	r.gate("loadgen.lag_p99_ms", "ms", l.ms["loadgen.lag_p99_ms"], 0, "")

	sum := 0.0
	for _, name := range partition {
		sum += l.ms[name]
	}
	traced := per(ms(tracedWall - l.instrument))
	r.gate("trace.unaccounted_ms", "ms", traced-per(sum), ops,
		fmt.Sprintf("per op: traced wall %.3f ms - phases %.3f ms", traced, per(sum)))
	untraced := per(ms(untracedWall))
	r.gate("trace.overhead_ms", "ms", traced-untraced, ops,
		fmt.Sprintf("per op: traced %.3f ms - untraced %.3f ms", traced, untraced))
}

// tracedPlain runs the plain design layer by layer.
func tracedPlain(l *layers, e *env, src storage.Source, sql string) ([]*expr.Row, error) {
	var a *engine.Analysis
	if err := parseAnalyze(l, src, sql, &a); err != nil {
		return nil, err
	}
	return buildExec(l, a, src, e.execCtx(), engine.BuildOptions{})
}

// execCtx is the execution context every public query path builds: fresh,
// with the database's adaptive statistics store attached.
func (e *env) execCtx() *engine.ExecCtx {
	ctx := engine.NewExecCtx()
	ctx.Adapt = e.Stats
	return ctx
}

func parseAnalyze(l *layers, src storage.Source, sql string, out **engine.Analysis) error {
	var stmt *sqlparser.SelectStmt
	if err := l.span("sqlparser.parse_ms", func() (err error) {
		stmt, err = sqlparser.Parse(sql)
		return err
	}); err != nil {
		return err
	}
	return l.span("engine.analyze_ms", func() (err error) {
		*out, err = engine.Analyze(stmt, src.Catalog())
		return err
	})
}

func buildExec(l *layers, a *engine.Analysis, src storage.Source, ctx *engine.ExecCtx, bo engine.BuildOptions) ([]*expr.Row, error) {
	var plan engine.Plan
	if err := l.span("engine.build_ms", func() (err error) {
		plan, err = engine.BuildOpt(a, src, bo)
		return err
	}); err != nil {
		return nil, err
	}
	var rows []*expr.Row
	err := l.span("engine.exec_ms", func() (err error) {
		rows, err = plan.Execute(ctx)
		return err
	})
	l.add("engine.rows_out", float64(len(rows)))
	return rows, err
}

// tracedLoose runs the loose design's pipeline layer by layer, the same
// calls loose.Driver.ExecuteAnalyzed makes: probe, build requests, enrich,
// write back, then build and execute the query.
func tracedLoose(l *layers, e *env, src storage.Source, sql string) ([]*expr.Row, error) {
	var a *engine.Analysis
	if err := parseAnalyze(l, src, sql, &a); err != nil {
		return nil, err
	}
	ctx := e.execCtx()
	drv := &loose.Driver{DB: src, Mgr: e.Mgr, Enricher: e.Enricher, Stats: e.Stats}

	// Bookkeeping, not a phase: how many candidate tuples were already
	// fully enriched.
	t0 := time.Now()
	all, err := loose.GenerateProbesOpt(a, src, e.Mgr, engine.NewExecCtx(), loose.ProbeOptions{NoPriorWork: true})
	l.instrument += time.Since(t0)
	if err != nil {
		return nil, err
	}
	for _, p := range all {
		l.add("enrich.candidates", float64(len(p.TIDs)))
	}

	var probes []loose.ProbeResult
	if err := l.span("loose.probe_ms", func() (err error) {
		probes, err = loose.GenerateProbes(a, src, e.Mgr, ctx)
		return err
	}); err != nil {
		return nil, err
	}
	for _, p := range probes {
		l.add("loose.probe_tuples", float64(len(p.TIDs)))
		l.add("enrich.candidates_cold", float64(len(p.TIDs)))
	}
	var reqs []loose.Request
	if err := l.span("loose.build_requests_ms", func() (err error) {
		reqs, err = drv.BuildRequests(probes)
		return err
	}); err != nil {
		return nil, err
	}
	l.add("loose.requests", float64(len(reqs)))
	if len(reqs) > 0 {
		before := e.Mgr.Counters()
		var resps []loose.Response
		if err := l.span("loose.enrich_batch_ms", func() (err error) {
			resps, _, err = e.Enricher.EnrichBatch(reqs)
			return err
		}); err != nil {
			return nil, err
		}
		ok := resps[:0]
		for _, r := range resps {
			if r.Failed() {
				return nil, fmt.Errorf("enrichment request failed: %s", r.Err)
			}
			ok = append(ok, r)
		}
		if err := l.span("loose.writeback_ms", func() error { return drv.WriteBack(ok) }); err != nil {
			return nil, err
		}
		l.countEnrich(before, e)
	}
	return buildExec(l, a, src, ctx, engine.BuildOptions{})
}

// countEnrich adds the manager's executions and state time since before.
func (l *layers) countEnrich(before enrich.Counters, e *env) {
	after := e.Mgr.Counters()
	l.add("enrich.executions", float64(after.Enrichments-before.Enrichments))
	l.ms["enrich.state_ms"] += ms(after.StateUpdateTime - before.StateUpdateTime)
}

// tracedTight runs the tight design layer by layer, the same calls
// tight.Driver.ExecuteAnalyzed makes: rewrite, build, then execute with the
// UDF runtime (tight.self_ms is that execution minus model inference).
func tracedTight(l *layers, e *env, src storage.Source, sql string) ([]*expr.Row, error) {
	var a *engine.Analysis
	if err := parseAnalyze(l, src, sql, &a); err != nil {
		return nil, err
	}
	var rw *engine.Analysis
	if err := l.span("tight.rewrite_ms", func() (err error) {
		rw, err = tight.RewriteAnalysis(a)
		return err
	}); err != nil {
		return nil, err
	}
	var plan engine.Plan
	if err := l.span("engine.build_ms", func() (err error) {
		plan, err = engine.BuildOpt(rw, src, engine.BuildOptions{Stats: e.Stats})
		return err
	}); err != nil {
		return nil, err
	}
	rt := tight.NewRuntime(src, e.Mgr)
	ctx := e.execCtx()
	ctx.Eval.Runtime = rt
	ctx.CopyRows = true
	ctx.Eval.PatchRows = true
	before := e.Mgr.Counters()
	var rows []*expr.Row
	err := l.span("tight.self_ms", func() (err error) {
		rows, err = plan.Execute(ctx)
		return err
	})
	l.add("tight.udf_calls", float64(ctx.Eval.UDFInvocations))
	l.add("engine.rows_out", float64(len(rows)))
	l.countEnrich(before, e)
	return rows, err
}

// tracedProgressive runs the progressive design through progressive.Run and
// splits its wall by the epoch reports: setup (view and probes), PlanTable
// sampling, enrichment, IVM delta apply, and the rest of each epoch.
func tracedProgressive(l *layers, e *env, cfg progressive.Config) (*progressive.Result, error) {
	cfg.DB = e.Store
	cfg.Mgr = e.Mgr
	cfg.Enricher = e.Enricher
	cfg.Stats = e.Stats
	cfg.CollectDeltas = true
	var plan, enr, delta time.Duration
	var epochs, deltaRows float64
	cfg.OnEpoch = func(rep progressive.EpochReport) {
		epochs++
		plan += rep.PlanTime
		enr += rep.EnrichTime
		delta += rep.DeltaTime
		deltaRows += float64(rep.Inserted + rep.Deleted)
	}
	before := e.Mgr.Counters()
	ml0 := l.timer.total()
	t0 := time.Now()
	res, err := progressive.Run(cfg)
	wall := time.Since(t0)
	mlRun := l.timer.total() - ml0
	if err != nil {
		return nil, err
	}
	// Inference runs inside the epochs' enrichment phases; any that exceeds
	// the reported enrichment time is taken from the epochs' other time.
	mlInEnrich := min(mlRun, enr)
	l.ms["progressive.setup_ms"] += ms(res.Overhead.Setup)
	l.ms["progressive.plan_ms"] += ms(plan)
	l.ms["progressive.enrich_ms"] += ms(enr - mlInEnrich)
	l.ms["ivm.delta_ms"] += ms(delta)
	other := wall - res.Overhead.Setup - plan - enr - delta - (mlRun - mlInEnrich)
	l.ms["progressive.other_ms"] += ms(other)
	l.add("progressive.epochs", epochs)
	l.add("ivm.delta_rows", deltaRows)
	after := e.Mgr.Counters()
	l.add("enrich.executions", float64(after.Enrichments-before.Enrichments))
	l.ms["enrich.state_ms"] += ms(after.StateUpdateTime - before.StateUpdateTime)
	return res, nil
}
