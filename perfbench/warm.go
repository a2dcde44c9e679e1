package main

import (
	"fmt"
	"math/rand"

	"enrichdb/internal/dataset"
)

func warmScale(size string) scale {
	if size == "tiny" {
		return scale{Tweets: 3000, Images: 900, Topics: 20, TimeRange: 3000}
	}
	return scale{Tweets: 20000, Images: 6000, Topics: 20, TimeRange: 20000}
}

// warmGen yields the warm_analytics stream: the join, aggregation and
// wide-scan templates Q4-Q9 plus a full-table aggregation, in rotation,
// with seeded windows. Q4 and Q8 are left out of the tight design, whose
// rewritten derived joins run as nested loops (seconds per instance).
type warmGen struct {
	rng *rand.Rand
	sc  scale
	n   int
}

func newWarmGen(seed int64, sc scale) *warmGen {
	return &warmGen{rng: rand.New(rand.NewSource(seed ^ 0x7761726d)), sc: sc}
}

// window draws a window whose width is given at the full size's time
// range and scaled to the generated one.
func (g *warmGen) window(width int64) (int64, int64) {
	width = width * g.sc.TimeRange / warmScale("full").TimeRange
	lo := g.rng.Int63n(g.sc.TimeRange - width)
	return lo, lo + width - 1
}

func (g *warmGen) next() query {
	r := g.rng
	q := query{Seed: r.Int63()}
	tweets := func(tmpl string, width int64) (int64, int64) {
		lo, hi := g.window(width)
		q.Tmpl, q.Rel, q.TimeCol, q.Lo, q.Hi = tmpl, "TweetData", "TweetTime", lo, hi
		return lo, hi
	}
	images := func(tmpl string, width int64) (int64, int64) {
		lo, hi := g.window(width)
		q.Tmpl, q.Rel, q.TimeCol, q.Lo, q.Hi = tmpl, "MultiPie", "ImageTime", lo, hi
		return lo, hi
	}
	switch g.n % 7 {
	case 0:
		lo, hi := tweets("Q4", 150)
		q.NoTight = true
		q.SQL = fmt.Sprintf("SELECT T1.tid, T2.tid, T1.topic FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.topic = T2.topic AND T1.TweetTime BETWEEN %d AND %d AND T2.TweetTime BETWEEN %d AND %d", lo, hi, lo, hi)
	case 1:
		lo, hi := images("Q5", 2500)
		cam := r.Intn(dataset.CameraDomain)
		q.SQL = fmt.Sprintf("SELECT M1.id, M2.id, M1.gender FROM MultiPie M1, MultiPie M2 WHERE M1.gender = M2.gender AND M1.CameraID = %d AND M2.CameraID = %d AND M1.ImageTime BETWEEN %d AND %d AND M2.ImageTime BETWEEN %d AND %d", cam, cam, lo, hi, lo, hi)
	case 2:
		lo, hi := images("Q6", 700)
		q.SQL = fmt.Sprintf("SELECT M1.id, M2.id, M1.expression FROM MultiPie M1, MultiPie M2 WHERE M1.gender = M2.gender AND M1.expression = M2.expression AND M1.CameraID < 3 AND M2.CameraID < 3 AND M1.ImageTime BETWEEN %d AND %d AND M2.ImageTime BETWEEN %d AND %d", lo, hi, lo, hi)
	case 3:
		lo, hi := tweets("Q7", 3000)
		q.SQL = fmt.Sprintf("SELECT T1.tid, T1.UserID, S.city, T1.sentiment FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = %d AND T1.TweetTime BETWEEN %d AND %d", r.Intn(dataset.SentimentDomain), lo, hi)
	case 4:
		lo, hi := tweets("Q8", 600)
		q.NoTight = true
		q.SQL = fmt.Sprintf("SELECT T1.tid, T2.tid, S.city, T1.topic FROM TweetData T1, TweetData T2, State S WHERE T1.Tweet = T2.Tweet AND T1.topic = T2.topic AND T1.location = S.city AND S.state = 'California' AND T1.TweetTime BETWEEN %d AND %d", lo, hi)
		// T2 matches T1 by its unique text, so it lies in the window too.
	case 5:
		lo, hi := tweets("Q9", g.sc.TimeRange/3)
		q.Agg = true
		q.SQL = fmt.Sprintf("SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN %d AND %d GROUP BY topic", lo, hi)
	default:
		tweets("scan", 0)
		q.Lo, q.Hi, q.Agg = 0, g.sc.TimeRange, true
		q.SQL = fmt.Sprintf("SELECT sentiment, count(*) FROM TweetData WHERE UserID < %d GROUP BY sentiment", 200+r.Intn(800))
	}
	g.n++
	return q
}

// warmWorkload is warm_analytics: one closed-loop client over a larger
// dataset ingested already enriched (InsertEnriched, counted in setup_s),
// so enrichment runs no functions and the engine does the work. Plain,
// loose and tight share the one database; progressive is left out, since
// on enriched data it only re-derives the first answer.
func warmWorkload(cfg config) (*result, error) {
	sc := warmScale(cfg.size)
	setup := closedSetup{
		world: func(timer *mlTimer) (*world, error) {
			return newWorld(cfg.seed, sc, dataset.SingleFunctionSpecs(), timer)
		},
		open: func(w *world) (dbSet, envSet, error) {
			db, err := w.openDBWith(true, cfg.trace)
			if err != nil {
				return nil, nil, err
			}
			var e *env
			if cfg.trace {
				if e, err = w.openEnv(true); err != nil {
					return nil, nil, err
				}
			}
			dbs, envs := dbSet{}, envSet{}
			for _, d := range []string{"loose", "plain", "tight"} {
				dbs[d], envs[d] = db, e
			}
			return dbs, envs, nil
		},
	}
	return closedLoop(cfg, setup, newWarmGen(cfg.seed, sc).next, 90)
}
