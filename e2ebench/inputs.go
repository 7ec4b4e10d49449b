package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"crn"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/workload"
)

// The probe sets are fixed per workload, independent of --seed: a probe's
// q-error then depends only on the model crnserve serves, so qerror_* repeats
// exactly across runs of one commit and moves only when estimation changes.
const (
	probeCount     = 300
	probeSeed      = 9001  // workload probe set (crd_test1 or crd_test2 mix)
	driftProbeSeed = 90210 // drifted probe set (scale generator family)
	feedbackSeed   = 4242  // feedback stream (scale generator family)
	batchSize      = 64
	// The working sets the read traffic repeats. 2,000 single queries fit
	// in a tier of the rep cache (crn.DefaultRepCacheSize, 8,192 entries);
	// 256 sessions hold ~14,000 distinct queries, so some batch repeats
	// miss too.
	hotQueries  = 2000
	hotSessions = 256
)

// defaultFirstSightingShare is the share of read requests that carry a
// query (or a planning session) crnserve has not seen before. Without them
// the representation cache answers nearly every lookup and the encode-miss
// path of nn_forward never runs. The value is an assumption: neither the
// paper nor the repository records how often an optimizer's estimates repeat.
// README.md shows how the read metrics move with it (--first-sighting-share).
const defaultFirstSightingShare = 0.1

// labeled is a query with its exact cardinality from the in-process
// executor.
type labeled struct {
	SQL  string
	Card int64
	q    query.Query // parsed from SQL
}

// inputs is everything a run sends, generated before crnserve starts.
type inputs struct {
	probes      []labeled // workload probe set, fixed
	driftProbes []labeled // scale-family probe set, fixed
	feedback    []labeled // scale-family feedback records, fixed
	read        *readTraffic
}

// readTraffic is the closed-loop read stream of one workload. Timed request
// i is units[order[i]]: a single query (estimate) or a 64-query planning
// session (batch). warm holds the warm-up requests, which use their own
// first sightings so that the timed phases' first sightings are really
// first.
type readTraffic struct {
	units  [][]string
	nUnits int // len(units) once generated
	order  []int32
	warm   []int32
	fresh  []bool // fresh[i]: order[i] is the first sending of its unit
}

type oracle struct{ sys *crn.System }

func (o oracle) Cardinality(q query.Query) (int64, error) {
	return o.sys.TrueCardinality(context.Background(), q)
}

func (o oracle) ContainmentRate(q1, q2 query.Query) (float64, error) {
	return o.sys.TrueContainment(context.Background(), q1, q2)
}

// nonEmpty draws distinct non-empty queries with the join mix dist from g
// and labels them with exact cardinalities. Candidates are drawn in a fixed
// order and labeled on two workers, so the result depends only on g's seed.
func nonEmpty(sys *crn.System, g *workload.Generator, dist map[int]int) ([]labeled, error) {
	joins := make([]int, 0, len(dist))
	for j := range dist {
		joins = append(joins, j)
	}
	sort.Ints(joins)
	seen := map[string]bool{}
	var out []labeled
	for _, j := range joins {
		want := dist[j]
		for tries := 0; want > 0; tries++ {
			if tries == 100 {
				return nil, fmt.Errorf("no %d non-empty %d-join queries after %d draws", dist[j], j, tries)
			}
			qs, err := g.Queries(2*want, j)
			if err != nil {
				return nil, err
			}
			var cand []query.Query
			for _, q := range qs {
				if !seen[q.Key()] {
					seen[q.Key()] = true
					cand = append(cand, q)
				}
			}
			lq, err := workload.LabelQueries(oracle{sys}, cand, 2)
			if err != nil {
				return nil, err
			}
			for _, l := range lq {
				if l.Card > 0 && want > 0 {
					out = append(out, labeled{SQL: l.Q.SQL(), Card: l.Card})
					want--
				}
			}
		}
	}
	return out, nil
}

// buildFixed generates the probe sets and the feedback stream, which do
// not depend on --seed. Feedback comes from the scale generator, a query
// family the seed pool and the startup training set do not cover, so
// retraining has something to learn; records crnserve already pools are
// answered accepted:false and the writer moves on to the next. The stream is
// fixed like the probe sets: retraining is deterministic, so the adapted
// model, and with it drift_qerror_*, repeats exactly and moves only when
// adaptation changes.
func buildFixed(sys *crn.System, w *workloadSpec, in *inputs) error {
	sch, d := sys.Schema(), sys.DB()
	var err error
	if in.probes, err = nonEmpty(sys, workload.NewGenerator(sch, d, probeSeed), w.probeDist(probeCount)); err != nil {
		return err
	}
	if in.driftProbes, err = nonEmpty(sys, workload.NewScaleGenerator(sch, d, driftProbeSeed), workload.ScaleDist(probeCount)); err != nil {
		return err
	}
	if in.feedback, err = nonEmpty(sys, workload.NewScaleGenerator(sch, d, feedbackSeed), workload.ScaleDist(feedbackNeeded)); err != nil {
		return err
	}
	rand.New(rand.NewSource(feedbackSeed)).Shuffle(len(in.feedback), func(i, j int) {
		in.feedback[i], in.feedback[j] = in.feedback[j], in.feedback[i]
	})
	return nil
}

// parse fills in each query from its SQL.
func parse(sys *crn.System, ls []labeled) error {
	for i := range ls {
		q, err := sys.ParseQuery(ls[i].SQL)
		if err != nil {
			return err
		}
		ls[i].q = q
	}
	return nil
}

// buildInputs generates a run's inputs from the workload and seed. warmReads
// and timedReads are the warm-up and timed read requests a run can send;
// share of them are first sightings.
func buildInputs(sys *crn.System, w *workloadSpec, seed int64, share float64, warmReads, timedReads int) (*inputs, error) {
	in := &inputs{}
	if err := buildFixed(sys, w, in); err != nil {
		return nil, fmt.Errorf("probe sets and feedback: %w", err)
	}
	for _, ls := range [][]labeled{in.probes, in.driftProbes, in.feedback} {
		if err := parse(sys, ls); err != nil {
			return nil, err
		}
	}
	sch, d := sys.Schema(), sys.DB()
	rng := rand.New(rand.NewSource(seed))
	g := workload.NewGenerator(sch, d, seed)
	hot := hotQueries
	if w.name == "batch" {
		hot = hotSessions
	}
	in.read = newReadTraffic(hot, warmReads, timedReads, share, rng)
	var err error
	if w.name == "batch" {
		in.read.units, err = sessionUnits(sch, g, rng, in.read.nUnits)
	} else {
		in.read.units, err = singleUnits(g, rng, in.read.nUnits)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// singleUnits draws n distinct crd_test1-mix queries (0–2 joins) in random
// order.
func singleUnits(g *workload.Generator, rng *rand.Rand, n int) ([][]string, error) {
	seen := map[string]bool{}
	var out [][]string
	for len(out) < n {
		qs, err := g.QueriesWithJoinDistribution(workload.CrdTest1Dist(n))
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for _, q := range qs {
			if k := q.SQL(); !seen[k] && len(out) < n {
				seen[k] = true
				out = append(out, []string{k})
			}
		}
	}
	return out, nil
}

// sessionUnits draws n planning sessions. A session is what a query
// optimizer asks while planning one crd_test2-style query (0–5 joins): the
// base query's connected sub-queries, as join enumeration visits them,
// filled up to 64 with variants of the base and its sub-queries, which share
// its tables and predicates.
func sessionUnits(sch *schema.Schema, g *workload.Generator, rng *rand.Rand, n int) ([][]string, error) {
	out := make([][]string, 0, n)
	for len(out) < n {
		base, err := g.InitialQuery(rng.Intn(6))
		if err != nil {
			return nil, err
		}
		qs, err := subQueries(sch, base)
		if err != nil {
			return nil, err
		}
		if len(qs) > batchSize {
			qs = qs[:batchSize]
		}
		for k := 0; len(qs) < batchSize; k++ {
			src := base
			if k%2 == 1 {
				src = qs[rng.Intn(len(qs))]
			}
			qs = append(qs, g.Variant(src))
		}
		s := make([]string, len(qs))
		for i, q := range qs {
			s[i] = q.SQL()
		}
		out = append(out, s)
	}
	return out, nil
}

// subQueries returns q's connected sub-queries on the star schema: title
// with every subset of q's other tables, and each of those tables alone,
// each keeping the joins and predicates inside its tables. q itself comes
// first.
func subQueries(sch *schema.Schema, q query.Query) ([]query.Query, error) {
	var sats []string
	hasTitle := false
	for _, t := range q.Tables {
		if t == schema.Title {
			hasTitle = true
		} else {
			sats = append(sats, t)
		}
	}
	if !hasTitle {
		return []query.Query{q}, nil
	}
	restrict := func(tables []string) (query.Query, error) {
		in := map[string]bool{}
		for _, t := range tables {
			in[t] = true
		}
		var joins []query.Join
		for _, j := range q.Joins {
			if in[j.Left.Table] && in[j.Right.Table] {
				joins = append(joins, j)
			}
		}
		var preds []query.Predicate
		for _, p := range q.Preds {
			if in[p.Col.Table] {
				preds = append(preds, p)
			}
		}
		return query.New(sch, tables, joins, preds)
	}
	out := []query.Query{q}
	for mask := (1 << len(sats)) - 2; mask >= 0; mask-- {
		tables := []string{schema.Title}
		for i, s := range sats {
			if mask&(1<<i) != 0 {
				tables = append(tables, s)
			}
		}
		sq, err := restrict(tables)
		if err != nil {
			return nil, err
		}
		out = append(out, sq)
	}
	for _, s := range sats {
		sq, err := restrict([]string{s})
		if err != nil {
			return nil, err
		}
		out = append(out, sq)
	}
	return out, nil
}

// newReadTraffic lays out the request order over unit indices. The first
// hot units are the repeating working set; every later unit is a first
// sighting, sent once. Warm-up sends the working set once and then
// warmReads requests of the timed mix; the timed phases draw from
// timedReads more. In the mix each request is a first sighting with
// probability share, otherwise a uniform draw from the working set. Every
// first sighting gets a unit of its own, so the share holds however many
// requests a phase sends; nUnits says how many units to generate.
func newReadTraffic(hot, warmReads, timedReads int, share float64, rng *rand.Rand) *readTraffic {
	t := &readTraffic{nUnits: hot}
	mix := func(n int) ([]int32, []bool) {
		order, fresh := make([]int32, n), make([]bool, n)
		for i := range order {
			if rng.Float64() < share {
				order[i], fresh[i] = int32(t.nUnits), true
				t.nUnits++
			} else {
				order[i] = int32(rng.Intn(hot))
			}
		}
		return order, fresh
	}
	t.warm = make([]int32, hot)
	for i := range t.warm {
		t.warm[i] = int32(i)
	}
	rng.Shuffle(hot, func(i, j int) { t.warm[i], t.warm[j] = t.warm[j], t.warm[i] })
	warmMix, _ := mix(warmReads)
	t.warm = append(t.warm, warmMix...)
	t.order, t.fresh = mix(timedReads)
	return t
}
