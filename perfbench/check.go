package main

import (
	"fmt"
	"sort"
	"strings"

	"enrichdb"
	"enrichdb/internal/catalog"
	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/ml"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// answer is a query result in canonical form: one string per row, in the
// order the system returned them.
type answer []string

func encodeRow(vals []types.Value) string {
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(v.Key())
	}
	return sb.String()
}

func rowsAnswer(r *enrichdb.Rows) answer {
	out := make(answer, r.Len())
	for i := range out {
		out[i] = encodeRow(r.At(i))
	}
	return out
}

func exprAnswer(rows []*expr.Row) answer {
	out := make(answer, len(rows))
	for i, r := range rows {
		out[i] = encodeRow(r.Vals)
	}
	return out
}

func valuesAnswer(rows [][]types.Value) answer {
	out := make(answer, len(rows))
	for i, r := range rows {
		out[i] = encodeRow(r)
	}
	return out
}

// diffExact reports how got differs from want, row for row and in order;
// "" when they are identical.
func diffExact(got, want answer) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d differs: got %.80s want %.80s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d rows, want %d", len(got), len(want))
	}
	return ""
}

// diffMultiset is diffExact ignoring row order.
func diffMultiset(got, want answer) string {
	g := append(answer(nil), got...)
	w := append(answer(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if d := diffExact(g, w); d != "" {
		return "as multisets: " + d
	}
	return ""
}

// versionedRow is a reference row tagged with the commit version that
// made it visible.
type versionedRow struct {
	Row     string
	Version uint64
}

// diffVersioned checks an answer read while rows were being committed.
// Every reference row committed at or before lo must be present, rows
// committed in (lo, hi] may be present, and nothing else may be; present
// rows keep the reference order. match compares one returned row with
// one reference row.
func diffVersioned(got answer, want []versionedRow, lo, hi uint64, match func(got, want string) bool) string {
	j := 0
	for _, w := range want {
		if w.Version > hi {
			continue
		}
		if j < len(got) && match(got[j], w.Row) {
			j++
			continue
		}
		if w.Version <= lo {
			return fmt.Sprintf("missing row committed at version %d (snapshot %d): %.80s", w.Version, lo, w.Row)
		}
	}
	if j < len(got) {
		return fmt.Sprintf("unexpected row %d (versions %d..%d): %.80s", j, lo, hi, got[j])
	}
	return ""
}

// sameRow is the plain equality matcher for diffVersioned.
func sameRow(got, want string) bool { return got == want }

// nullableMatch returns a matcher that also accepts NULL in the given
// columns: a plain read sees a derived value only once some query has
// enriched and written it back.
func nullableMatch(cols ...int) func(got, want string) bool {
	null := types.Null.Key()
	return func(got, want string) bool {
		if got == want {
			return true
		}
		g, w := strings.Split(got, "|"), strings.Split(want, "|")
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if g[i] == w[i] {
				continue
			}
			ok := false
			for _, c := range cols {
				if c == i && g[i] == null {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
}

// refStore is the reference the answers are checked against: a copy of the
// world's rows whose derived values are filled in by the benchmark's own
// oracle (every family model run on the tuple's feature, distributions
// averaged, argmax) and queried with the plain engine. It shares no
// enrichment, probe, UDF or state code with the designs under test.
type refStore struct {
	w      *world
	db     *storage.DB
	filled map[string]map[int64]bool
}

func newRefStore(w *world) (*refStore, error) {
	r := &refStore{w: w, db: storage.NewDB(), filled: make(map[string]map[int64]bool)}
	for _, rel := range w.relations() {
		src := w.Data.DB.Catalog().Schema(rel)
		schema, err := catalog.NewSchema(rel, append([]catalog.Column(nil), src.Cols...))
		if err != nil {
			return nil, err
		}
		tbl, err := r.db.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		for _, t := range w.rows(rel) {
			if _, err := tbl.Insert(&types.Tuple{ID: t.ID, Vals: cloneVals(t.Vals)}); err != nil {
				return nil, err
			}
		}
		r.filled[rel] = make(map[int64]bool)
	}
	return r, nil
}

// fill determines every derived attribute of the given tuples that is not
// filled yet.
func (r *refStore) fill(rel string, tids []int64) error {
	tbl, err := r.db.Base(rel)
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	for _, tid := range tids {
		if r.filled[rel][tid] {
			continue
		}
		tu := tbl.Get(tid)
		if tu == nil {
			return fmt.Errorf("reference: %s has no tuple %d", rel, tid)
		}
		for _, fam := range r.w.families() {
			if fam[0].Rel != rel {
				continue
			}
			col := schema.Col(fam[0].Attr)
			feature := tu.Vals[schema.ColIndex(col.FeatureCol)].Vector()
			sum := make([]float64, col.Domain)
			for _, m := range fam {
				p := m.Raw.PredictProba(feature)
				for c := 0; c < col.Domain && c < len(p); c++ {
					sum[c] += p[c]
				}
			}
			if _, err := tbl.Update(tid, fam[0].Attr, types.NewInt(int64(ml.Argmax(sum)))); err != nil {
				return err
			}
		}
		r.filled[rel][tid] = true
	}
	return nil
}

// fillWhere fills every tuple of rel whose int column lies in [lo, hi].
func (r *refStore) fillWhere(rel, col string, lo, hi int64) error {
	tbl, err := r.db.Base(rel)
	if err != nil {
		return err
	}
	ci := tbl.Schema().ColIndex(col)
	var tids []int64
	tbl.Scan(func(t *types.Tuple) bool {
		if v := t.Vals[ci].Int(); v >= lo && v <= hi && !r.filled[rel][t.ID] {
			tids = append(tids, t.ID)
		}
		return true
	})
	return r.fill(rel, tids)
}

// query runs sql on the reference rows with the plain engine.
func (r *refStore) query(sql string) ([]*expr.Row, error) {
	return execPlain(r.db, sql)
}

// execPlain parses, analyzes, builds and executes sql without enrichment.
func execPlain(src storage.Source, sql string) ([]*expr.Row, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	a, err := engine.Analyze(stmt, src.Catalog())
	if err != nil {
		return nil, err
	}
	plan, err := engine.Build(a, src)
	if err != nil {
		return nil, err
	}
	return plan.Execute(engine.NewExecCtx())
}

// qualityFn scores answers against the ground-truth answer: F1 over the
// answer's base-tuple sets for selections and joins, and for aggregations
// F1 over the multiset of (group, count) units, so a count that is off by
// k costs k units.
type qualityFn struct {
	agg   bool
	want  map[string]int
	total int
}

func newQuality(truth []*expr.Row, agg bool) *qualityFn {
	q := &qualityFn{agg: agg, want: make(map[string]int)}
	for _, r := range truth {
		k, n := qualityUnit(r.Vals, r.TIDs, agg)
		q.want[k] += n
		q.total += n
	}
	return q
}

func qualityUnit(vals []types.Value, tids []int64, agg bool) (string, int) {
	if agg {
		return encodeRow(vals[:len(vals)-1]), int(vals[len(vals)-1].Int())
	}
	parts := make([]string, len(tids))
	for i, t := range tids {
		parts[i] = fmt.Sprint(t)
	}
	return strings.Join(parts, ","), 1
}

// f1 scores an answer given as parallel value rows and tuple-ID rows.
func (q *qualityFn) f1(n int, vals func(int) []types.Value, tids func(int) []int64) float64 {
	got := make(map[string]int)
	total := 0
	for i := 0; i < n; i++ {
		k, c := qualityUnit(vals(i), tids(i), q.agg)
		got[k] += c
		total += c
	}
	if total == 0 && q.total == 0 {
		return 1
	}
	tp := 0
	for k, c := range got {
		if w := q.want[k]; w < c {
			tp += w
		} else {
			tp += c
		}
	}
	return 2 * float64(tp) / float64(total+q.total)
}
