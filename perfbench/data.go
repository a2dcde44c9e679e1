package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"enrichdb"
	"enrichdb/internal/catalog"
	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
	"enrichdb/internal/loose"
	"enrichdb/internal/ml"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// scale sizes one generated dataset.
type scale struct {
	Tweets, Images, Topics int
	TimeRange              int64
}

// model is one trained enrichment function, ready to register with any
// number of databases (classifiers are read-only after Fit).
type model struct {
	Rel, Attr, Name, Kind string
	Quality               float64
	// Clf is what the databases run (timed when tracing); Raw is the bare
	// trained model the reference oracle uses.
	Clf, Raw ml.Classifier
}

// world is one seeded dataset plus its trained function families. Every
// database a workload measures is loaded from the same world, so designs
// start from identical cold state.
type world struct {
	Data   *dataset.Data
	Models []model // registration order: (relation, attr) sorted, family order within
	// Held is, per relation, how many trailing generated rows the databases
	// are not loaded with; serve_mixed's writer inserts them during the run.
	Held map[string]int
}

// newWorld generates the dataset and trains the families. With timer set,
// every classifier is wrapped so its inference calls are counted and timed.
func newWorld(seed int64, sc scale, specs map[[2]string][]dataset.ModelSpec, timer *mlTimer) (*world, error) {
	d, err := dataset.Generate(dataset.Config{
		Seed: seed, Tweets: sc.Tweets, Images: sc.Images,
		TopicDomain: sc.Topics, TimeRange: sc.TimeRange,
	})
	if err != nil {
		return nil, err
	}
	keys := make([][2]string, 0, len(specs))
	for k := range specs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	w := &world{Data: d}
	for _, k := range keys {
		fam, err := d.TrainFamily(k[0], k[1], nil, specs[k]...)
		if err != nil {
			return nil, err
		}
		for i, fn := range fam.Functions {
			var clf ml.Classifier = fn.Model
			kind := specs[k][i].Kind
			if timer != nil {
				clf = timer.wrap(kind, clf)
			}
			w.Models = append(w.Models, model{Rel: k[0], Attr: k[1], Name: fn.Name, Kind: kind, Quality: fn.Quality, Clf: clf, Raw: fn.Model})
		}
	}
	return w, nil
}

// relations lists the dataset's relations in catalog order.
func (w *world) relations() []string { return w.Data.DB.Catalog().Relations() }

// rows returns a relation's generated tuples in insertion order.
func (w *world) rows(rel string) []*types.Tuple {
	var out []*types.Tuple
	w.Data.DB.MustTable(rel).Scan(func(t *types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// openDBWith builds a public-API database holding the world's rows, with
// every family registered. With enriched set, rows go in through
// InsertEnriched (every function executed at ingestion) instead of Insert.
// With raw set, the database runs the bare classifiers even in a traced run.
func (w *world) openDBWith(enriched, raw bool) (*enrichdb.DB, error) {
	db := enrichdb.Open()
	for _, rel := range w.relations() {
		schema := w.Data.DB.Catalog().Schema(rel)
		cols := make([]enrichdb.Column, len(schema.Cols))
		for i, c := range schema.Cols {
			cols[i] = enrichdb.Column{Name: c.Name, Kind: c.Kind, Derived: c.Derived, FeatureCol: c.FeatureCol, Domain: c.Domain}
		}
		if err := db.CreateRelation(rel, cols); err != nil {
			return nil, err
		}
		if rel == "TweetData" {
			if err := db.CreateIndex(rel, "location"); err != nil {
				return nil, err
			}
		}
	}
	for _, fam := range w.families() {
		fns := make([]enrichdb.Function, len(fam))
		for i, m := range fam {
			clf := m.Clf
			if raw {
				clf = m.Raw
			}
			fns[i] = enrichdb.Function{Name: m.Name, Model: clf, Quality: m.Quality}
		}
		if err := db.RegisterEnrichment(fam[0].Rel, fam[0].Attr, fns...); err != nil {
			return nil, err
		}
	}
	insert := db.Insert
	if enriched {
		insert = db.InsertEnriched
	}
	for _, rel := range w.relations() {
		for _, t := range w.loaded(rel) {
			if _, err := insert(rel, t.ID, cloneVals(t.Vals)...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// families groups the models by (relation, attr) in registration order.
func (w *world) families() [][]model {
	var out [][]model
	for _, m := range w.Models {
		if n := len(out); n > 0 && out[n-1][0].Rel == m.Rel && out[n-1][0].Attr == m.Attr {
			out[n-1] = append(out[n-1], m)
			continue
		}
		out = append(out, []model{m})
	}
	return out
}

// env is the internal-package twin of a public DB: the same storage,
// manager, enricher and statistics store enrichdb.Open wires together. The
// traced runs call each layer through it directly.
type env struct {
	Store    *storage.DB
	Mgr      *enrich.Manager
	Stats    *stats.Store
	Enricher loose.Enricher
}

// openEnv builds an env holding the world's rows. With enriched set, every
// derived attribute is enriched with its whole family and determined at
// load, as DB.InsertEnriched does.
func (w *world) openEnv(enriched bool) (*env, error) {
	e := &env{Store: storage.NewDB(), Mgr: enrich.NewManager(), Stats: stats.NewStore()}
	e.Enricher = &loose.LocalEnricher{Mgr: e.Mgr}
	for _, rel := range w.relations() {
		src := w.Data.DB.Catalog().Schema(rel)
		schema, err := catalog.NewSchema(rel, append([]catalog.Column(nil), src.Cols...))
		if err != nil {
			return nil, err
		}
		if _, err := e.Store.CreateTable(schema); err != nil {
			return nil, err
		}
	}
	for _, fam := range w.families() {
		fns := make([]*enrich.Function, len(fam))
		for i, m := range fam {
			fns[i] = &enrich.Function{Name: m.Name, Model: m.Clf, Quality: m.Quality}
		}
		domain := w.Data.Domain(fam[0].Rel, fam[0].Attr)
		f, err := enrich.NewFamily(fam[0].Rel, fam[0].Attr, domain, enrich.AvgProb{}, fns...)
		if err != nil {
			return nil, err
		}
		if err := e.Mgr.Register(f); err != nil {
			return nil, err
		}
	}
	for _, rel := range w.relations() {
		tbl, _ := e.Store.Base(rel)
		if rel == "TweetData" {
			if err := tbl.CreateIndex("location"); err != nil {
				return nil, err
			}
		}
		for _, t := range w.loaded(rel) {
			if _, err := tbl.Insert(&types.Tuple{ID: t.ID, Vals: cloneVals(t.Vals)}); err != nil {
				return nil, err
			}
			if enriched {
				if err := e.enrichTuple(rel, t.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	return e, nil
}

// enrichTuple runs every family function on one tuple and stores the
// determined values, the ingestion-time enrichment of DB.InsertEnriched.
func (e *env) enrichTuple(rel string, tid int64) error {
	tbl, err := e.Store.Base(rel)
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	tu := tbl.Get(tid)
	for _, attr := range schema.DerivedCols() {
		fam := e.Mgr.Family(rel, attr)
		if fam == nil {
			continue
		}
		feature := tu.Vals[schema.ColIndex(schema.Col(attr).FeatureCol)].Vector()
		for _, fn := range fam.Functions {
			if _, err := e.Mgr.Execute(rel, tid, attr, fn.ID, feature); err != nil {
				return err
			}
		}
		v, err := e.Mgr.Determine(rel, tid, attr, feature)
		if err != nil {
			return err
		}
		if _, err := tbl.Update(tid, attr, v); err != nil {
			return err
		}
	}
	return nil
}

// cloneVals copies a generated row, feature vectors included, so each
// database owns the rows it is loaded with and its heap shows them.
func cloneVals(vals []types.Value) []types.Value {
	out := append([]types.Value(nil), vals...)
	for i, v := range out {
		if v.Kind() == types.KindVector {
			out[i] = types.NewVector(append([]float64(nil), v.Vector()...))
		}
	}
	return out
}

// mlTimer counts and times classifier inference per model kind.
type mlTimer struct {
	kinds map[string]*kindStat
}

type kindStat struct {
	calls atomic.Int64
	nanos atomic.Int64
}

// mlKinds are the classifier kinds the per-layer report always lists.
var mlKinds = []string{"gnb", "dt", "knn", "svm", "mlp", "lda", "lr", "rf"}

func newMLTimer() *mlTimer {
	t := &mlTimer{kinds: make(map[string]*kindStat)}
	for _, k := range mlKinds {
		t.kinds[k] = &kindStat{}
	}
	return t
}

func (t *mlTimer) wrap(kind string, c ml.Classifier) ml.Classifier {
	st, ok := t.kinds[kind]
	if !ok {
		panic(fmt.Sprintf("perfbench: unlisted model kind %q", kind))
	}
	return &timedClassifier{Classifier: c, st: st}
}

// total returns the summed inference time over every kind.
func (t *mlTimer) total() time.Duration {
	var n int64
	for _, st := range t.kinds {
		n += st.nanos.Load()
	}
	return time.Duration(n)
}

// timedClassifier decorates a classifier's PredictProba with a call counter
// and a timer.
type timedClassifier struct {
	ml.Classifier
	st *kindStat
}

func (c *timedClassifier) PredictProba(x []float64) []float64 {
	t0 := time.Now()
	p := c.Classifier.PredictProba(x)
	c.st.nanos.Add(int64(time.Since(t0)))
	c.st.calls.Add(1)
	return p
}

// loaded returns the rows the databases start with: every generated row of
// rel except the held-back tail.
func (w *world) loaded(rel string) []*types.Tuple {
	rows := w.rows(rel)
	return rows[:len(rows)-w.Held[rel]]
}
