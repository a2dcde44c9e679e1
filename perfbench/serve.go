package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb"
	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/server"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// The serve_mixed load, fixed in the benchmark.
const (
	serveConns     = 2     // client connections, one goroutine each (nproc on the reference box)
	serveRecycle   = 25    // requests a connection serves before it re-dials for a fresh snapshot
	serveWriteRate = 40.0  // TweetData inserts per second, from one writer
	serveWindow    = 40    // time units (about 40 rows) a read covers
	serveRecent    = 0.7   // share of reads over the newest rows
	serveP99Limit  = 100.0 // ms: a ladder rate passes when its p99 from due time stays within this
	serveRefRate   = 50.0  // requests per second the latency metrics are measured at
	serveRefShare  = 0.6   // share of the run spent at the reference rate
)

// serveLadder is the fixed, coarse ladder of offered rates, in requests per
// second, starting at the reference rate; it stops at the first rate that
// misses the p99 limit.
var serveLadder = []float64{serveRefRate, 100, 200, 400, 800, 1600}

// serveDesigns is the reads' design rotation.
var serveDesigns = []wire.Design{wire.DesignPlain, wire.DesignLoose, wire.DesignTight}

// serveClass names the latency metric family a design's reads feed.
var serveClass = map[wire.Design]string{wire.DesignPlain: "plain", wire.DesignLoose: "loose", wire.DesignTight: "tight"}

// serveScale keeps the served table small: reads scan it whole (there is
// no range index), and the workload is about serving, not scanning, so scans
// must not dominate the wire and admission costs or queue the reads.
func serveScale(size string) scale {
	if size == "tiny" {
		return scale{Tweets: 1000, Images: 100, Topics: 20, TimeRange: 1000}
	}
	return scale{Tweets: 3000, Images: 100, Topics: 20, TimeRange: 3000}
}

// serveReq is one scheduled read.
type serveReq struct {
	due    time.Duration // from the rung's start
	design wire.Design
	sql    string
	lo, hi int64 // TweetTime window
}

// serveRes is what the client observed for one read.
type serveRes struct {
	req        serveReq
	dueAt      time.Time
	send, done time.Time
	rows       answer
	serverWall time.Duration
	version    uint64 // the committed version of the connection's snapshot
	err        error
}

func (r serveRes) latency() time.Duration { return r.done.Sub(r.dueAt) }
func (r serveRes) lag() time.Duration     { return r.send.Sub(r.dueAt) }

// serveState is the running serve_mixed system: the database and its
// server, plus the writer's commit log.
type serveState struct {
	w    *world
	db   *enrichdb.DB
	srv  *server.Server
	base int // TweetData rows loaded at set-up; row k of the writer has tid base+k+1
	v0   uint64

	mu       sync.Mutex
	versions []uint64 // commit version of each row the writer inserted
	insertNs int64
	writeErr error
}

// close stops the server and closes the database, releasing both.
func (st *serveState) close() {
	if st.srv != nil {
		st.srv.Close()
		st.srv = nil
	}
	if st.db != nil {
		st.db.Close()
		st.db = nil
	}
}

// frontier is the newest TweetTime the writer's schedule has committed at
// offset t into the measured phase.
func (st *serveState) frontier(t time.Duration) int64 {
	return int64(st.base) + min(int64(t.Seconds()*serveWriteRate), int64(st.w.Held["TweetData"]))
}

// newServeWorld generates the world, holding back the writer's rows.
func newServeWorld(cfg config, held int, timer *mlTimer) (*world, error) {
	sc := serveScale(cfg.size)
	base := sc.Tweets
	sc.Tweets += held
	w, err := newWorld(cfg.seed, sc, dataset.SingleFunctionSpecs(), timer)
	if err != nil {
		return nil, err
	}
	// The held rows arrive after the base rows, one time unit apart.
	w.Held = map[string]int{"TweetData": held}
	tbl := w.Data.DB.MustTable("TweetData")
	for k := 0; k < held; k++ {
		if _, err := tbl.Update(int64(base+k+1), "TweetTime", types.NewInt(int64(base+k))); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// startServe loads the world's base rows already enriched and starts the
// server. With raw set the database runs the bare classifiers; tracer, when
// not nil, traces every query the server runs.
func startServe(w *world, tracer *telemetry.Tracer, raw bool) (*serveState, error) {
	st := &serveState{w: w, base: len(w.rows("TweetData")) - w.Held["TweetData"]}
	var err error
	if st.db, err = w.openDBWith(true, raw); err != nil {
		return nil, err
	}
	st.v0 = st.db.Version()
	st.db.SetServing(enrichdb.ServingConfig{MaxSessions: serveConns, QueueTimeout: 5 * time.Second})
	st.srv, err = server.New(server.Config{DB: st.db, Tracer: tracer})
	if err == nil {
		err = st.srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// writer inserts the held rows at serveWriteRate through DB.Insert, until
// they run out or stop closes, recording each commit's version.
func (st *serveState) writer(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	rows := st.w.rows("TweetData")[st.base:]
	start := time.Now()
	for k, t := range rows {
		due := start.Add(time.Duration(float64(k) / serveWriteRate * float64(time.Second)))
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		t0 := time.Now()
		_, err := st.db.Insert("TweetData", t.ID, cloneVals(t.Vals)...)
		d := time.Since(t0)
		st.mu.Lock()
		if err != nil {
			st.writeErr = err
			st.mu.Unlock()
			return
		}
		st.versions = append(st.versions, st.db.Version())
		st.insertNs += int64(d)
		st.mu.Unlock()
	}
}

// inserted returns the writer's cumulative insert time in nanoseconds.
func (st *serveState) inserted() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.insertNs
}

// versionOf is the commit version that made TweetData tuple tid visible
// (MaxUint64 for a held row the writer never inserted).
func (st *serveState) versionOf(tid int64) uint64 {
	k := int(tid) - st.base - 1
	if k < 0 {
		return st.v0
	}
	if k >= len(st.versions) {
		return math.MaxUint64
	}
	return st.versions[k]
}

// serveGen makes the reads: designs in rotation, windows over the newest
// rows (where the writer's schedule places them at the read's due time) or
// uniformly over the history.
type serveGen struct {
	rng *rand.Rand
	st  *serveState
	n   int
}

// newServeGen returns the seeded read generator; generators made from the
// same seed draw the same schedules.
func newServeGen(seed int64, st *serveState) *serveGen {
	return &serveGen{rng: rand.New(rand.NewSource(seed ^ 0x73657276)), st: st}
}

func (g *serveGen) read(at time.Duration) serveReq {
	r := g.rng
	d := serveDesigns[g.n%len(serveDesigns)]
	g.n++
	front := g.st.frontier(at)
	var lo int64
	if r.Float64() < serveRecent {
		lo = front - serveWindow + 1 + r.Int63n(serveWindow/2)
	} else {
		lo = r.Int63n(front - serveWindow)
	}
	hi := lo + serveWindow - 1
	req := serveReq{due: at, design: d, lo: lo, hi: hi}
	switch d {
	case wire.DesignPlain:
		req.sql = fmt.Sprintf("SELECT tid, TweetTime, sentiment FROM TweetData WHERE TweetTime BETWEEN %d AND %d", lo, hi)
	case wire.DesignLoose:
		req.sql = fmt.Sprintf("SELECT tid, UserID, topic FROM TweetData WHERE sentiment = %d AND TweetTime BETWEEN %d AND %d", r.Intn(dataset.SentimentDomain), lo, hi)
	default:
		req.sql = fmt.Sprintf("SELECT tid, sentiment FROM TweetData WHERE topic <= %d AND TweetTime BETWEEN %d AND %d", 5+r.Intn(10), lo, hi)
	}
	return req
}

// schedule draws Poisson arrivals at rate for dur; offset places the rung
// within the measured phase for the reads' recency.
func (g *serveGen) schedule(rate float64, offset, dur time.Duration) []serveReq {
	var out []serveReq
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		req := g.read(offset + at)
		req.due = at
		out = append(out, req)
	}
}

// conn is one client connection. The server binds one snapshot session to
// each connection, so it is re-dialed every serveRecycle requests for reads
// to see newly committed rows.
type conn struct {
	addr string
	c    *client.Client
	used int
}

func (c *conn) get() (*client.Client, error) {
	if c.c != nil && c.used < serveRecycle {
		c.used++
		return c.c, nil
	}
	c.close()
	cl, err := client.Dial(c.addr, client.Options{Client: "perfbench"})
	if err != nil {
		return nil, err
	}
	c.c, c.used = cl, 1
	return cl, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// dial returns the serveConns connections to st's server; each dials on
// first use.
func (st *serveState) dial() []*conn {
	conns := make([]*conn, serveConns)
	for i := range conns {
		conns[i] = &conn{addr: st.srv.Addr().String()}
	}
	return conns
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// runRung sends reqs on schedule from one goroutine per connection, each
// taking the next request when free. Latency is timed from each request's
// due time, so a send delayed by a busy client counts against the system;
// the delay itself is the generator's lag.
func (st *serveState) runRung(conns []*conn, reqs []serveReq) []serveRes {
	res := make([]serveRes, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out := &res[i]
				out.req = reqs[i]
				out.dueAt = start.Add(reqs[i].due)
				st.send(c, out)
			}
		}(c)
	}
	wg.Wait()
	return res
}

func (st *serveState) send(c *conn, out *serveRes) {
	cl, err := c.get()
	if err != nil {
		out.err = err
		out.send, out.done = time.Now(), time.Now()
		return
	}
	time.Sleep(time.Until(out.dueAt))
	out.version = cl.Version()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	out.send = time.Now()
	r, err := cl.Query(ctx, out.req.design, out.req.sql)
	out.done = time.Now()
	cancel()
	if err != nil {
		out.err = err
		c.close()
		return
	}
	out.rows = valuesAnswer(r.Rows)
	out.serverWall = r.Wall
}

// rung is one ladder step's outcome.
type rung struct {
	rate float64
	res  []serveRes
	p99  float64
	pass bool
}

// checkServe compares every answer with the reference rows committed by
// the snapshot version the read ran at.
func checkServe(r *result, st *serveState, ref *refStore, res []serveRes) error {
	for _, x := range res {
		r.Attempted++
		if x.err != nil {
			r.fail(false, "%s: %v", x.req.sql, x.err)
			continue
		}
		if err := ref.fillWhere("TweetData", "TweetTime", x.req.lo, x.req.hi); err != nil {
			return err
		}
		rows, err := ref.query(x.req.sql)
		if err != nil {
			return err
		}
		want := make([]versionedRow, len(rows))
		for i, row := range rows {
			want[i] = versionedRow{Row: encodeRow(row.Vals), Version: st.versionOf(row.TIDs[0])}
		}
		match := sameRow
		if x.req.design == wire.DesignPlain {
			match = nullableMatch(2) // sentiment is NULL until a query enriched it
		}
		if d := diffVersioned(x.rows, want, x.version, x.version, match); d != "" {
			r.fail(true, "%s %s: %s [%s]", serveClass[x.req.design], "read", d, x.req.sql)
		}
	}
	return nil
}

// knee is the highest offered rate that met the p99 limit, interpolated
// log-linearly between the last passing and the first failing rung (or
// extrapolated below the first rung when even it fails).
func knee(rungs []rung) (float64, string) {
	last := -1
	for i, g := range rungs {
		if !g.pass {
			break
		}
		last = i
	}
	switch {
	case last == len(serveLadder)-1:
		return rungs[last].rate, "every ladder rate met the limit"
	case last < 0:
		return rungs[0].rate * serveP99Limit / rungs[0].p99, "even the lowest rate missed the limit"
	}
	a, b := rungs[last], rungs[last+1]
	f := (math.Log(serveP99Limit) - math.Log(a.p99)) / (math.Log(b.p99) - math.Log(a.p99))
	f = math.Max(0, math.Min(1, f))
	return a.rate * math.Pow(b.rate/a.rate, f), fmt.Sprintf("between %.0f and %.0f", a.rate, b.rate)
}

// serveWorkload is serve_mixed: an open-loop, Poisson load over loopback TCP
// against an in-process server, stepping up a fixed ladder of rates, with
// one writer inserting fresh rows beside the reads.
func serveWorkload(cfg config) (*result, error) {
	r := &result{Workload: cfg.workload, Trace: cfg.trace}
	// Rung lengths: the reference rate gets serveRefShare of the run, the
	// other rates share the rest.
	refDur := time.Duration(float64(cfg.seconds) * serveRefShare)
	stepDur := time.Duration(float64(cfg.seconds) * (1 - serveRefShare) / float64(len(serveLadder)-1))
	// The writer's quota: a run's worth of rows at the write rate. The
	// database is measured once all of them are in, so its heap does not
	// depend on how long the ladder took.
	held := int(serveWriteRate * cfg.seconds.Seconds())

	var timer *mlTimer
	if cfg.trace {
		timer = newMLTimer()
	}
	var w *world
	var st *serveState
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newServeWorld(cfg, held, timer); err != nil {
			return nil, err
		}
		if st, err = startServe(w, nil, true); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return r, serveTraced(r, st, w, refDur, timer, cfg.seed)
	}

	gen := newServeGen(cfg.seed, st)
	conns := st.dial()
	defer closeAll(conns)
	stop, writerDone := make(chan struct{}), make(chan struct{})
	go st.writer(stop, writerDone)
	phase := time.Now()
	var rungs []rung
	var ref rung
	for _, rate := range serveLadder {
		dur := stepDur
		if rate == serveRefRate {
			dur = refDur
		}
		g := rung{rate: rate, res: st.runRung(conns, gen.schedule(rate, time.Since(phase), dur))}
		var lat samples
		for _, x := range g.res {
			if x.err != nil {
				lat = append(lat, time.Hour) // a failed request misses any limit
				continue
			}
			lat = append(lat, x.latency())
		}
		g.p99 = lat.pct(99)
		g.pass = g.p99 <= serveP99Limit
		rungs = append(rungs, g)
		if rate == serveRefRate {
			ref = g
		}
		if !g.pass && rate > serveRefRate {
			break
		}
	}
	closeAll(conns)
	<-writerDone
	close(stop)

	var all []serveRes
	for _, g := range rungs {
		all = append(all, g.res...)
	}
	// The heap the database and its server hold, with the writer's quota
	// in: the live heap with them, less the live heap once they are closed
	// and released.
	withDB := heapMB()
	if err := finishServe(r, st, all); err != nil {
		return nil, err
	}
	st.close()
	heap := withDB - heapMB()
	r.info("rows_inserted", "count", float64(len(st.versions)), 0, "by the writer during the run")

	byClass := map[string]samples{}
	var pooled, lag, trips samples
	for _, x := range ref.res {
		if x.err != nil {
			continue
		}
		byClass[serveClass[x.req.design]] = append(byClass[serveClass[x.req.design]], x.latency())
		pooled = append(pooled, x.latency())
		lag = append(lag, x.lag())
		trips = append(trips, x.done.Sub(x.send))
	}
	r.gate("setup_s", "s", median(setups), len(setups), "median of set-ups")
	r.gate("heap_mb", "MB", heap, 0, "live heap the database and server hold once the writer's quota is in")
	for _, c := range []string{"plain", "loose", "tight"} {
		r.designLatency(c, map[string]samples{c: byClass[c]}, 90)
	}
	r.allMetricsServe(pooled, trips, rungs)
	r.info("loadgen.lag_p99_ms", "ms", lag.pct(99), len(lag), fmt.Sprintf("at %.0f/s", serveRefRate))
	for _, g := range rungs {
		var l samples
		for _, x := range g.res {
			l = append(l, x.lag())
		}
		r.info(fmt.Sprintf("rate_%.0f_p99_ms", g.rate), "ms", g.p99, len(g.res),
			fmt.Sprintf("pass=%v lag_p99=%.2fms", g.pass, l.pct(99)))
	}
	return r, nil
}

// refRung runs the reference rate alone on st for dur, beside the writer,
// from a fresh connection set. Every call with the same seed sends the same
// schedule against a table that grows the same way.
func refRung(st *serveState, seed int64, dur time.Duration) []serveRes {
	conns := st.dial()
	defer closeAll(conns)
	stop, done := make(chan struct{}), make(chan struct{})
	go st.writer(stop, done)
	res := st.runRung(conns, newServeGen(seed, st).schedule(serveRefRate, 0, dur))
	close(stop)
	<-done
	return res
}

// serveTraced is the traced serve_mixed run: the reference rate once on
// the untraced server st (bare classifiers, no tracer), then on a second
// server loaded from the same world with the tracer and the timed
// classifiers on, each rung with the same schedule and its own writer.
func serveTraced(r *result, st *serveState, w *world, dur time.Duration, timer *mlTimer, seed int64) error {
	untraced := refRung(st, seed, dur)
	if err := finishServe(r, st, untraced); err != nil {
		return err
	}
	st.close()
	sink := &telemetry.CollectSink{}
	tst, err := startServe(w, telemetry.NewTracer(sink), false)
	if err != nil {
		return err
	}
	defer tst.close()
	l := newLayers(timer)
	l.startML()
	traced := refRung(tst, seed, dur)
	if err := tst.reportTrace(r, l, sink, untraced, traced); err != nil {
		return err
	}
	r.info("rows_inserted", "count", float64(len(tst.versions)), 0, "by the writer during the traced rung")
	return finishServe(r, tst, traced)
}

// finishServe checks every answer against the reference and the writer's
// inserts for errors.
func finishServe(r *result, st *serveState, res []serveRes) error {
	ref, err := newRefStore(st.w)
	if err != nil {
		return err
	}
	if st.writeErr != nil {
		r.fail(false, "writer insert: %v", st.writeErr)
	}
	return checkServe(r, st, ref, res)
}

// allMetricsServe gates the pooled p90 of every read at the reference rate
// as all_tail_ms and, as capacity_qps, the reads one connection completes
// per second of round trip there: the closed loops' definition, the rate a
// connection sustains sending back to back. It prints serve_p50_ms,
// serve_p99_ms and serve_knee_qps, which run-to-run spread on a two-core box
// keeps from gating: the p99 and the knee interpolated from it move by a
// quarter between identical runs. So did the completion rate under a burst
// that saturated both cores, by up to 39% between runs of one seed.
func (r *result) allMetricsServe(pooled, trips samples, rungs []rung) {
	r.allMetrics(pooled, 90, trips.slicedRate(), fmt.Sprintf("reads per second of round trip at %.0f/s, median of %d slices", serveRefRate, sliceCount))
	kneeQPS, kneeNote := knee(rungs)
	at := fmt.Sprintf("at %.0f/s from due time", serveRefRate)
	r.info("serve_p50_ms", "ms", pooled.pct(50), len(pooled), at)
	note := at
	if len(pooled) < minSamples(99) {
		note += fmt.Sprintf(" (below the %d samples p99 needs)", minSamples(99))
	}
	r.info("serve_p99_ms", "ms", pooled.pct(99), len(pooled), note)
	r.info("serve_knee_qps", "1/s", kneeQPS, 0, fmt.Sprintf("p99 <= %.0f ms, %s", serveP99Limit, kneeNote))
}

// reportTrace derives serve_mixed's per-layer metrics. Each traced
// request's latency from its due time splits into the generator's lag, the
// server's wall (ResultDone) and the rest of the client round trip (wire
// encode, flush, transfer and decode). Out of the server's wall come model
// inference (the timed classifiers) and the plan layers, timed by replaying
// each statement's parse, analyze and build through the benchmark's own
// calls. Session opens and admission waits come from the server's spans and
// histogram; they happen on a connection's re-dial, inside the lag, so they
// are shown but not summed.
func (st *serveState) reportTrace(r *result, l *layers, sink *telemetry.CollectSink, untraced, traced []serveRes) error {
	var lag samples
	var wall, uwall time.Duration
	var ok, uok int
	for _, x := range traced {
		if x.err != nil {
			continue
		}
		ok++
		lag = append(lag, x.lag())
		l.ms["loadgen.queue_ms"] += ms(x.lag())
		l.ms["server.exec_ms"] += ms(x.serverWall)
		l.ms["wire.overhead_ms"] += ms(x.done.Sub(x.send) - x.serverWall)
		wall += x.latency()
	}
	for _, x := range untraced {
		if x.err == nil {
			uok++
			uwall += x.latency()
		}
	}
	if ok == 0 || uok == 0 {
		return fmt.Errorf("serve_mixed: no request succeeded")
	}
	e, err := st.w.openEnv(false)
	if err != nil {
		return err
	}
	for _, x := range traced {
		if x.err != nil {
			continue
		}
		var a *engine.Analysis
		if err := parseAnalyze(l, e.Store, x.req.sql, &a); err != nil {
			return err
		}
		if err := l.span("engine.build_ms", func() error {
			_, err := engine.Build(a, e.Store)
			return err
		}); err != nil {
			return err
		}
	}
	mlms := 0.0
	for _, v := range l.mlTotals() {
		mlms += v[1]
	}
	l.ms["server.exec_ms"] -= l.ms["sqlparser.parse_ms"] + l.ms["engine.analyze_ms"] + l.ms["engine.build_ms"] + mlms
	opens := 0
	for _, sp := range sink.Spans() {
		if sp.Name == "server.admission" {
			l.ms["storage.session_open_ms"] += ms(sp.Dur)
			opens++
		}
	}
	h := st.db.Telemetry().Snapshot().Histograms["serve.admission_wait_ms"]
	l.ms["server.admit_wait_ms"] = h.Sum
	l.ms["storage.session_open_ms"] -= h.Sum
	l.ms["storage.insert_ms"] = ms(time.Duration(st.inserted()))
	l.ms["loadgen.lag_p99_ms"] = lag.pct(99)
	r.info("connections_opened", "count", float64(opens), 0, "")
	l.report(r, servePartition, ok, wall, uwall*time.Duration(ok)/time.Duration(uok))
	return nil
}
