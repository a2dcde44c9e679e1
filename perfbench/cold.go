package main

import (
	"fmt"
	"math/rand"

	"enrichdb/internal/dataset"
)

// f1Target is the answer quality progressive runs are timed to (ttf1).
const f1Target = 0.8

// coldConvergeShare is the seeded share of progressive runs that continue
// to convergence so their final answer can be checked.
const coldConvergeShare = 0.2

// query is one generated query instance. Rel/TimeCol/Lo/Hi bound the base
// tuples its answer can draw on, which the reference fills before
// answering it.
type query struct {
	Tmpl     string
	SQL      string
	Agg      bool
	Converge bool
	NoTight  bool // the template is left out of the tight design
	Seed     int64
	Rel      string
	TimeCol  string
	Lo, Hi   int64
	// Attrs are the derived attributes of Rel the query reads; warm_share
	// is measured over them.
	Attrs []string
	// Fresh asks for the design databases to be reloaded before this
	// instance runs: every earlier window of its relation is used up.
	Fresh bool
}

// coldBlock is, per relation, the width of the disjoint blocks cold_enrich
// windows are drawn from: the relation's widest window.
var coldBlock = map[string]int64{"MultiPie": 1200, "TweetData": 90}

// coldGen yields the cold_enrich stream: the selective templates Q1, Q2,
// Q3, Q7 and Q9 in rotation, each with a seeded time window (and camera
// range). Windows are sized so each template's loose run costs about the
// same: a tweet carries two kNN models (about 0.5 ms each), an image far
// cheaper ones, so image windows are wider. Balanced templates keep the
// pooled percentiles from landing on one template's samples.
//
// Each window lies in its own block of its relation, drawn without
// replacement, so every instance reads tuples no earlier instance enriched.
// When a relation's blocks run out, every relation's blocks are dealt again
// and the instance is marked Fresh, so it runs on newly loaded databases.
type coldGen struct {
	rng  *rand.Rand
	sc   scale
	n    int
	free map[string][]int64 // per relation, the block starts not dealt yet
}

func newColdGen(seed int64, sc scale) *coldGen {
	g := &coldGen{rng: rand.New(rand.NewSource(seed ^ 0x636f6c64)), sc: sc}
	g.deal()
	return g
}

// deal shuffles every relation's blocks into its free list.
func (g *coldGen) deal() {
	g.free = make(map[string][]int64)
	for _, rel := range []string{"MultiPie", "TweetData"} {
		block := coldBlock[rel]
		for b := int64(0); b+block <= g.sc.TimeRange; b += block {
			g.free[rel] = append(g.free[rel], b)
		}
		g.rng.Shuffle(len(g.free[rel]), func(i, j int) {
			g.free[rel][i], g.free[rel][j] = g.free[rel][j], g.free[rel][i]
		})
	}
}

// window places a window of the given width in the relation's next free
// block and points q at it.
func (g *coldGen) window(q *query, tmpl, rel, timeCol string, width int64, attrs ...string) (int64, int64) {
	if len(g.free[rel]) == 0 {
		g.deal()
		q.Fresh = true
	}
	n := len(g.free[rel])
	b := g.free[rel][n-1]
	g.free[rel] = g.free[rel][:n-1]
	lo := b + g.rng.Int63n(coldBlock[rel]-width+1)
	q.Tmpl, q.Rel, q.TimeCol, q.Lo, q.Hi, q.Attrs = tmpl, rel, timeCol, lo, lo+width-1, attrs
	return q.Lo, q.Hi
}

func (g *coldGen) next() query {
	r := g.rng
	q := query{Seed: r.Int63(), Converge: r.Float64() < coldConvergeShare}
	// Windows are in time units; the datasets hold one tweet and 0.3
	// images per unit.
	switch g.n % 5 {
	case 0:
		lo, hi := g.window(&q, "Q1", "MultiPie", "ImageTime", 1200, "gender")
		cam := r.Int63n(6)
		q.SQL = fmt.Sprintf("SELECT id, CameraID, ImageTime, gender FROM MultiPie WHERE gender = %d AND CameraID BETWEEN %d AND %d AND ImageTime BETWEEN %d AND %d",
			r.Intn(dataset.GenderDomain), cam, cam+4, lo, hi)
	case 1:
		lo, hi := g.window(&q, "Q2", "MultiPie", "ImageTime", 1200, "gender", "expression")
		cam := r.Int63n(6)
		q.SQL = fmt.Sprintf("SELECT id, CameraID, gender, expression FROM MultiPie WHERE gender = %d AND expression = %d AND CameraID BETWEEN %d AND %d AND ImageTime BETWEEN %d AND %d",
			r.Intn(dataset.GenderDomain), r.Intn(dataset.ExpressionDomain), cam, cam+4, lo, hi)
	case 2:
		lo, hi := g.window(&q, "Q3", "TweetData", "TweetTime", 16, "topic", "sentiment")
		q.SQL = fmt.Sprintf("SELECT tid, UserID, TweetTime, topic, sentiment FROM TweetData WHERE topic <= %d AND sentiment = %d AND TweetTime BETWEEN %d AND %d",
			g.sc.Topics/4+r.Intn(g.sc.Topics/4), r.Intn(dataset.SentimentDomain), lo, hi)
	case 3:
		lo, hi := g.window(&q, "Q7", "TweetData", "TweetTime", 90, "sentiment")
		state := []string{"California", "Texas"}[r.Intn(2)]
		q.SQL = fmt.Sprintf("SELECT T1.tid, T1.location, S.state, T1.sentiment FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = '%s' AND T1.sentiment = %d AND T1.TweetTime BETWEEN %d AND %d",
			state, r.Intn(dataset.SentimentDomain), lo, hi)
	default:
		lo, hi := g.window(&q, "Q9", "TweetData", "TweetTime", 40, "topic")
		q.Agg = true
		q.SQL = fmt.Sprintf("SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN %d AND %d GROUP BY topic", lo, hi)
	}
	g.n++
	return q
}

func coldScale(size string) scale {
	if size == "tiny" {
		return scale{Tweets: 1500, Images: 450, Topics: 20, TimeRange: 1500}
	}
	return scale{Tweets: 10000, Images: 3000, Topics: 20, TimeRange: 10000}
}

// coldWorkload is cold_enrich: one closed-loop client runs each instance in
// loose (then a plain re-read of what loose wrote back), tight and
// progressive, each design on its own identically built database.
func coldWorkload(cfg config) (*result, error) {
	sc := coldScale(cfg.size)
	setup := closedSetup{
		world: func(timer *mlTimer) (*world, error) {
			return newWorld(cfg.seed, sc, dataset.PaperFamilySpecs(), timer)
		},
		open: func(w *world) (dbSet, envSet, error) {
			dbs, envs := dbSet{}, envSet{}
			for _, d := range []string{"loose", "tight", "progressive"} {
				var err error
				if dbs[d], err = w.openDBWith(false, cfg.trace); err != nil {
					return nil, nil, err
				}
				if cfg.trace {
					if envs[d], err = w.openEnv(false); err != nil {
						return nil, nil, err
					}
				}
			}
			dbs["plain"], envs["plain"] = dbs["loose"], envs["loose"]
			return dbs, envs, nil
		},
	}
	return closedLoop(cfg, setup, newColdGen(cfg.seed, sc).next, 90)
}
