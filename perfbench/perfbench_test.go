package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/types"
)

// benchmarkSpec reads the metric names BENCHMARK.json gates on.
func benchmarkSpec(t *testing.T) (workloads, e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return
}

// TestTinyPassPrintsEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks the JSON line carries exactly the metrics
// BENCHMARK.json names, every answer checked out, and the report names the
// failure share.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	names, e2e, layers := benchmarkSpec(t)
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 1500 * time.Millisecond, trace: trace, size: "tiny", setupReps: 1}
			res, err := workloads[w](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			if err := res.write(&out); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w, trace, err)
			}
			want := e2e
			if trace {
				want = layers
			}
			var printed []string
			for n, m := range got.Metrics {
				printed = append(printed, n)
				if m.Unit == "" {
					t.Errorf("%s trace=%v: %s has no unit", w, trace, n)
				}
			}
			sort.Strings(printed)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if strings.Join(printed, ",") != strings.Join(sorted, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w, trace, printed, sorted)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, got.Correct, got.Failed, got.Attempted, out.String())
			}
			if !strings.Contains(out.String(), "failed_share") {
				t.Errorf("%s trace=%v: report lacks failed_share", w, trace)
			}
		}
	}
}

// referenceRows returns a real answer to check corruptions against: a
// selection over a tiny world's reference, with its derived column.
func referenceRows(t *testing.T) answer {
	t.Helper()
	w, err := newWorld(3, serveScale("tiny"), dataset.SingleFunctionSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefStore(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.fillWhere("TweetData", "TweetTime", 0, 300); err != nil {
		t.Fatal(err)
	}
	rows, err := ref.query("SELECT tid, TweetTime, sentiment FROM TweetData WHERE TweetTime BETWEEN 0 AND 300")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("reference answer too small: %d rows", len(rows))
	}
	return exprAnswer(rows)
}

// flipLabel changes row i's last (derived) value to another class.
func flipLabel(a answer, i int) answer {
	out := append(answer(nil), a...)
	parts := strings.Split(out[i], "|")
	v := types.NewInt(0)
	if parts[len(parts)-1] == v.Key() {
		v = types.NewInt(1)
	}
	parts[len(parts)-1] = v.Key()
	out[i] = strings.Join(parts, "|")
	return out
}

func drop(a answer, i int) answer {
	return append(append(answer(nil), a[:i]...), a[i+1:]...)
}

func TestCheckersRejectCorruptedAnswers(t *testing.T) {
	want := referenceRows(t)
	mid := len(want) / 2

	// Exact, ordered: the closed-loop designs.
	if d := diffExact(want, want); d != "" {
		t.Errorf("exact rejects the reference itself: %s", d)
	}
	if diffExact(drop(want, mid), want) == "" {
		t.Error("exact accepts a dropped row")
	}
	if diffExact(flipLabel(want, mid), want) == "" {
		t.Error("exact accepts a flipped label")
	}
	swapped := append(answer(nil), want...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if diffExact(swapped, want) == "" {
		t.Error("exact accepts reordered rows")
	}

	// Multiset: converged progressive answers.
	if d := diffMultiset(swapped, want); d != "" {
		t.Errorf("multiset rejects a reordering: %s", d)
	}
	if diffMultiset(drop(want, mid), want) == "" {
		t.Error("multiset accepts a dropped row")
	}
	if diffMultiset(flipLabel(want, mid), want) == "" {
		t.Error("multiset accepts a flipped label")
	}

	// Versioned: served reads. Rows carry commit versions 1..n; a read at
	// snapshot lo must hold exactly the rows committed by lo.
	versioned := make([]versionedRow, len(want))
	for i, r := range want {
		versioned[i] = versionedRow{Row: r, Version: uint64(i + 1)}
	}
	lo := uint64(mid)
	atLo := want[:mid]
	for _, m := range []struct {
		name  string
		match func(got, want string) bool
	}{{"exact", sameRow}, {"nullable", nullableMatch(2)}} {
		if d := diffVersioned(atLo, versioned, lo, lo, m.match); d != "" {
			t.Errorf("%s: versioned rejects the snapshot's rows: %s", m.name, d)
		}
		if diffVersioned(drop(atLo, 1), versioned, lo, lo, m.match) == "" {
			t.Errorf("%s: versioned accepts a dropped row", m.name)
		}
		if diffVersioned(flipLabel(atLo, 1), versioned, lo, lo, m.match) == "" {
			t.Errorf("%s: versioned accepts a flipped label", m.name)
		}
		// A row committed after the response arrived (version hi+1).
		if diffVersioned(want[:mid+1], versioned, lo, lo, m.match) == "" {
			t.Errorf("%s: versioned accepts a row committed after the response", m.name)
		}
		// Rows committed while the request was in flight are optional.
		if d := diffVersioned(want[:mid+1], versioned, lo, lo+2, m.match); d != "" {
			t.Errorf("%s: versioned rejects an in-flight row: %s", m.name, d)
		}
	}
	// A plain read may show a derived value as NULL (not yet enriched), never
	// as a wrong class.
	nulled := append(answer(nil), atLo...)
	parts := strings.Split(nulled[1], "|")
	parts[2] = types.Null.Key()
	nulled[1] = strings.Join(parts, "|")
	if d := diffVersioned(nulled, versioned, lo, lo, nullableMatch(2)); d != "" {
		t.Errorf("nullable rejects a not-yet-enriched value: %s", d)
	}
	if diffVersioned(nulled, versioned, lo, lo, sameRow) == "" {
		t.Error("exact accepts a NULL derived value")
	}
}

func TestKneeInterpolates(t *testing.T) {
	rungs := []rung{{rate: 100, p99: 20, pass: true}, {rate: 200, p99: 50, pass: true}, {rate: 400, p99: 500, pass: false}}
	k, _ := knee(rungs)
	if k <= 200 || k >= 400 {
		t.Errorf("knee %.1f not between the last passing and first failing rate", k)
	}
	rungs[1] = rung{rate: 200, p99: serveP99Limit * 2, pass: false}
	if k, _ := knee(rungs[:2]); k <= 100 || k >= 200 {
		t.Errorf("knee %.1f not between 100 and 200", k)
	}
}

// TestColdWindowsStayCold checks that a cold_enrich window never overlaps an
// earlier window of its relation unless the databases were reloaded in
// between, so no instance reads tuples an earlier one enriched.
func TestColdWindowsStayCold(t *testing.T) {
	g := newColdGen(5, coldScale("full"))
	used := map[string][][2]int64{}
	reloads := 0
	for i := 0; i < 500; i++ {
		q := g.next()
		if q.Fresh {
			used = map[string][][2]int64{}
			reloads++
		}
		for _, u := range used[q.Rel] {
			if q.Lo <= u[1] && u[0] <= q.Hi {
				t.Fatalf("instance %d (%s) window [%d, %d] overlaps [%d, %d] with no reload between", i, q.Tmpl, q.Lo, q.Hi, u[0], u[1])
			}
		}
		used[q.Rel] = append(used[q.Rel], [2]int64{q.Lo, q.Hi})
	}
	if reloads == 0 {
		t.Error("500 instances never asked for a reload")
	}
}
