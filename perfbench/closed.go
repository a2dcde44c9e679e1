package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"enrichdb"
	"enrichdb/internal/expr"
	"enrichdb/internal/progressive"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// designs is the order a closed-loop instance runs its designs in; plain
// comes right after loose so on cold data it re-reads what loose wrote back.
var designs = []string{"loose", "plain", "tight", "progressive"}

// dbSet names the public database each design runs on.
type dbSet map[string]*enrichdb.DB

// envSet names the internal twin each design runs on in a traced run.
type envSet map[string]*env

// outcome is what one instance's design runs returned.
type outcome struct {
	q       query
	ran     []string          // the designs attempted
	answers map[string]answer // progressive only when the run converged
	lat     map[string]time.Duration
	ttf1    time.Duration // -1 when the run ended below its quality target
	wall    time.Duration // every design, session opens included
	errs    []string
}

func newOutcome(q query) outcome {
	return outcome{q: q, answers: make(map[string]answer), lat: make(map[string]time.Duration), ttf1: -1}
}

// ranDesigns lists the designs instance q runs: those the workload has a
// database for, tight only where the template allows it.
func ranDesigns[T any](q query, have map[string]T) []string {
	var out []string
	for _, d := range designs {
		if _, ok := have[d]; ok && !(d == "tight" && q.NoTight) {
			out = append(out, d)
		}
	}
	return out
}

// qualityTarget is the F1 a progressive run is timed to: f1Target, or the
// F1 of the reference answer when the functions cannot reach f1Target.
type qualityTarget struct {
	fn     *qualityFn
	target float64
}

// runPublic runs one instance through the public API on dbs.
func runPublic(dbs dbSet, q query, qt qualityTarget) outcome {
	out := newOutcome(q)
	out.ran = ranDesigns(q, dbs)
	for _, d := range out.ran {
		t0 := time.Now()
		s, err := dbs[d].Session()
		if err != nil {
			out.errs = append(out.errs, fmt.Sprintf("%s %s: session: %v", q.Tmpl, d, err))
			continue
		}
		t1 := time.Now()
		var rows *enrichdb.Rows
		switch d {
		case "plain":
			rows, err = s.Query(q.SQL)
		case "loose":
			var res *enrichdb.Result
			if res, err = s.QueryLoose(q.SQL); err == nil {
				if res.FailedEnrichments > 0 {
					err = fmt.Errorf("%d failed enrichments", res.FailedEnrichments)
				}
				rows = res.Rows
			}
		case "tight":
			var res *enrichdb.Result
			if res, err = s.QueryTight(q.SQL); err == nil {
				rows = res.Rows
			}
		case "progressive":
			cancel := make(chan struct{})
			var res *enrichdb.ProgressiveResult
			res, err = s.QueryProgressive(q.SQL, enrichdb.ProgressiveOptions{
				Strategy: enrichdb.FunctionOrdered, Seed: q.Seed, Cancel: cancel,
				Quality: func(r *enrichdb.Rows) float64 {
					f := qt.fn.f1(r.Len(), r.At, r.TIDs)
					if f >= qt.target && out.ttf1 < 0 {
						out.ttf1 = time.Since(t1)
						if !q.Converge {
							close(cancel)
						}
					}
					return f
				},
			})
			if err == nil && q.Converge {
				rows = res.Rows
			}
		}
		out.lat[d] = time.Since(t1)
		s.Close()
		out.wall += time.Since(t0)
		if err != nil {
			out.errs = append(out.errs, fmt.Sprintf("%s %s: %v", q.Tmpl, d, err))
			continue
		}
		if rows != nil {
			out.answers[d] = rowsAnswer(rows)
		}
	}
	return out
}

// runTraced runs one instance layer by layer on the internal twins.
func runTraced(l *layers, envs envSet, q query, qt qualityTarget) outcome {
	out := newOutcome(q)
	out.ran = ranDesigns(q, envs)
	for _, d := range out.ran {
		e := envs[d]
		t0 := time.Now()
		var src storage.Source
		l.span("storage.session_open_ms", func() error {
			src = e.Store.Freeze()
			return nil
		})
		var rows []*expr.Row
		var err error
		switch d {
		case "plain":
			rows, err = tracedPlain(l, e, src, q.SQL)
		case "loose":
			rows, err = tracedLoose(l, e, src, q.SQL)
		case "tight":
			rows, err = tracedTight(l, e, src, q.SQL)
		case "progressive":
			cancel := make(chan struct{})
			base := e.Mgr.Counters().Enrichments
			t1 := time.Now()
			var res *progressive.Result
			res, err = tracedProgressive(l, e, progressive.Config{
				Design: progressive.Loose, Query: q.SQL, Strategy: progressive.SBFO, Seed: q.Seed, Cancel: cancel,
				Quality: func(rows []*expr.Row) float64 {
					f := qt.fn.f1(len(rows), func(i int) []types.Value { return rows[i].Vals }, func(i int) []int64 { return rows[i].TIDs })
					if f >= qt.target && out.ttf1 < 0 {
						out.ttf1 = time.Since(t1)
						l.add("progressive.enrichments_to_f1", float64(e.Mgr.Counters().Enrichments-base))
						if !q.Converge {
							close(cancel)
						}
					}
					return f
				},
			})
			if err == nil && q.Converge {
				rows = res.Rows
			}
		}
		out.lat[d] = time.Since(t0)
		out.wall += out.lat[d]
		if err != nil {
			out.errs = append(out.errs, fmt.Sprintf("%s %s (traced): %v", q.Tmpl, d, err))
			continue
		}
		if rows != nil {
			out.answers[d] = exprAnswer(rows)
		}
	}
	return out
}

// closedSetup builds a closed-loop workload: world generates the dataset
// and trains the families; open loads, from the world, the database each
// design runs on and, in a traced run, its internal twin.
type closedSetup struct {
	world func(timer *mlTimer) (*world, error)
	open  func(w *world) (dbSet, envSet, error)
}

// closedLoop runs a single closed-loop client over the instances next
// yields for cfg.seconds. The set-up runs cfg.setupReps times and the last
// one is measured; an instance marked Fresh first reloads the databases,
// untimed. tail is the tail percentile the latencies are reported at.
func closedLoop(cfg config, setup closedSetup, next func() query, tail float64) (*result, error) {
	r := &result{Workload: cfg.workload, Trace: cfg.trace}
	var timer *mlTimer
	if cfg.trace {
		timer = newMLTimer()
	}
	var w *world
	var dbs dbSet
	var envs envSet
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		w, dbs, envs = nil, nil, nil
		t0 := time.Now()
		var err error
		if w, err = setup.world(timer); err != nil {
			return nil, err
		}
		if dbs, envs, err = setup.open(w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	truthDB, err := w.Data.TruthDB()
	if err != nil {
		return nil, err
	}
	refs, err := newRefStore(w)
	if err != nil {
		return nil, err
	}
	l := newLayers(timer)
	if cfg.trace {
		l.startML()
	}

	var outs, touts []outcome
	unreached, reloads := 0, 0
	var warm, windowed float64
	heap := -1.0
	start := time.Now()
	var untimed time.Duration
	deadline := start.Add(cfg.seconds)
	for len(outs) == 0 || time.Now().Before(deadline) {
		q := next()
		// Untimed: fresh databases when asked for, the reference and
		// ground-truth answers, from them the progressive run's quality
		// target, and how much of the window is enriched already.
		t0 := time.Now()
		if q.Fresh {
			if heap < 0 {
				heap = dbHeap(&dbs, &envs)
			}
			if dbs, envs, err = setup.open(w); err != nil {
				return nil, err
			}
			runtime.GC()
			reloads++
		}
		if err := refs.fillWhere(q.Rel, q.TimeCol, q.Lo, q.Hi); err != nil {
			return nil, err
		}
		ref, err := refs.query(q.SQL)
		if err != nil {
			return nil, err
		}
		truth, err := execPlain(truthDB, q.SQL)
		if err != nil {
			return nil, err
		}
		qt := qualityTarget{fn: newQuality(truth, q.Agg), target: f1Target}
		best := qt.fn.f1(len(ref), func(i int) []types.Value { return ref[i].Vals }, func(i int) []int64 { return ref[i].TIDs })
		if best < qt.target {
			qt.target = best
			unreached++
		}
		want := exprAnswer(ref)
		if len(q.Attrs) > 0 {
			n, set, err := enrichedShare(dbs["loose"], q)
			if err != nil {
				return nil, err
			}
			windowed += n
			warm += set
		}
		untimed += time.Since(t0)

		o := runPublic(dbs, q, qt)
		check(r, o, want)
		outs = append(outs, o)
		if cfg.trace {
			to := runTraced(l, envs, q, qt)
			check(r, to, want)
			touts = append(touts, to)
		}
	}
	elapsed := time.Since(start) - untimed
	// The databases are measured after a fixed amount of work: before the
	// first reload (every window of a relation read once) or, in a run that
	// never reloads, at its end.
	if heap < 0 {
		heap = dbHeap(&dbs, &envs)
	}

	if cfg.trace {
		var tw, uw time.Duration
		for i := range touts {
			tw += touts[i].wall
			uw += outs[i].wall
		}
		l.report(r, closedPartition, len(touts), tw, uw)
		return r, nil
	}
	// byDesign groups each design's latencies by template, in run order.
	byDesign := map[string]map[string]samples{}
	var tmpls []string
	var all, ttf1 samples
	ops := 0
	for _, o := range outs {
		if !slices.Contains(tmpls, o.q.Tmpl) {
			tmpls = append(tmpls, o.q.Tmpl)
		}
		for d, v := range o.lat {
			if byDesign[d] == nil {
				byDesign[d] = map[string]samples{}
			}
			byDesign[d][o.q.Tmpl] = append(byDesign[d][o.q.Tmpl], v)
			all = append(all, v)
			ops++
		}
		if o.ttf1 >= 0 {
			ttf1 = append(ttf1, o.ttf1)
		}
	}
	r.gate("setup_s", "s", median(setups), len(setups), "median of set-ups")
	r.gate("heap_mb", "MB", heap, 0, "live heap the databases hold, before the first reload or at the end")
	for _, d := range []string{"plain", "loose", "tight"} {
		r.designLatency(d, byDesign[d], tail)
	}
	if len(ttf1) > 0 {
		r.infoPair("ttf1", ttf1, tail)
	}
	r.allMetrics(all, tail, all.slicedRate(), fmt.Sprintf("closed loop: design runs completed per second, median of %d slices", sliceCount))
	r.info("run_rate_qps", "1/s", float64(ops)/elapsed.Seconds(), 0, "design runs per second over the whole run")
	r.info("instances", "count", float64(len(outs)), 0, "")
	for _, t := range tmpls {
		for _, d := range designs {
			if s := byDesign[d][t]; len(s) > 0 {
				r.info(t+"."+d+"_p50_ms", "ms", s.pct(50), len(s), "")
			}
		}
	}
	if windowed > 0 {
		r.info("enrich.warm_share", "share", warm/windowed, int(windowed),
			"of the windows' tuples whose queried derived attributes were set at query start")
	}
	r.info("reloads", "count", float64(reloads), 0, "untimed database reloads once every window was used")
	if len(ttf1) > 0 {
		r.info("ttf1_target_capped", "count", float64(unreached), 0, "instances whose reference answer scores below F1 0.8; timed to its F1")
	}
	return r, nil
}

// check compares every answer of o with the reference: row for row and in
// order, except a converged progressive answer, whose incrementally
// maintained view has its own row order and is compared as a multiset.
func check(r *result, o outcome, want answer) {
	r.Attempted += len(o.ran)
	for _, e := range o.errs {
		r.fail(false, "%s", e)
	}
	for _, d := range designs {
		got, ok := o.answers[d]
		if !ok {
			continue
		}
		var diff string
		if d == "progressive" {
			diff = diffMultiset(got, want)
		} else {
			diff = diffExact(got, want)
		}
		if diff != "" {
			r.fail(true, "%s %s: %s [%s]", o.q.Tmpl, d, diff, o.q.SQL)
		}
	}
}

// dbHeap returns the live heap, in MiB, that the databases hold: the
// forced-GC live heap with them less the one after releasing them. The
// world, the reference and the samples are the benchmark's own and count in
// neither.
func dbHeap(dbs *dbSet, envs *envSet) float64 {
	with := heapMB()
	*dbs, *envs = nil, nil
	return with - heapMB()
}

// enrichedShare counts, on db with a plain untimed read, the tuples of q's
// window and those of them whose derived attributes q reads are all set.
func enrichedShare(db *enrichdb.DB, q query) (n, set float64, err error) {
	rows, err := db.Query(fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %d AND %d",
		strings.Join(q.Attrs, ", "), q.Rel, q.TimeCol, q.Lo, q.Hi))
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < rows.Len(); i++ {
		if !slices.ContainsFunc(rows.At(i), func(v enrichdb.Value) bool { return v.IsNull() }) {
			set++
		}
	}
	return float64(rows.Len()), set, nil
}
