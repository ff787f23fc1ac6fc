package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"recmech/internal/service"
)

// A workload is a fixed list of HTTP operations, generated from the seed
// before any clock starts. setup runs once per measured set-up (it takes
// an empty data dir to the state the timed phase starts from); ops is the
// timed sequence. Nothing in either depends on how fast the program runs.
type workload struct {
	name  string
	setup []op
	ops   []op
}

// opClass says what an operation is for, which fixes the response it
// must get (status, cached flag) and the latency sample it feeds.
type opClass uint8

const (
	classPut     opClass = iota // PUT /v1/datasets/{name}
	classPatch                  // PATCH /v1/datasets/{name}
	classPrepare                // POST /v2/prepare: compile and warm, zero ε
	classBattery                // standing query answered right after a write
	classFresh                  // ad-hoc query whose plan is not cached
	classHit                    // release at a new ε on a cached plan
	classReplay                 // identical repeat of an earlier release
)

var classNames = [...]string{"put", "patch", "prepare", "battery", "fresh", "hit", "replay"}

func (c opClass) String() string { return classNames[c] }

// op is one HTTP request plus what the checker expects of its answer.
type op struct {
	class   opClass
	method  string
	path    string
	body    []byte
	dataset string

	// Exactly one of these describes the request, for the traced run's
	// mirror of the service's internal calls.
	query  *service.Request
	upload *service.UploadRequest
	patch  *service.AppendRequest

	edges       int  // writes to a graph: the edge count the response must report
	replayOf    int  // classReplay: index of the op whose value must repeat
	roundStart  bool // opens a round of the timed phase (see run)
	fresh       bool // a fresh_*_ms sample
	hit         bool // a hit_p50_ms sample
	writeSample bool // an append_p50_ms sample
	write       bool // starts a refresh
	lastRead    bool // ends the refresh started by the latest write
}

// postAppendQueries counts the battery queries asked right after an edge
// append: the queries that race the service's background re-warm.
func postAppendQueries(ops []op) int {
	n, appended := 0, false
	for i := range ops {
		switch {
		case ops[i].class == classPatch:
			appended = ops[i].patch.Edges != ""
		case ops[i].class == classPut:
			appended = false
		case ops[i].class == classBattery && appended:
			n++
		}
	}
	return n
}

// isRelease reports whether the op answers with a released value.
func (o *op) isRelease() bool { return o.query != nil && o.class != classPrepare }

// roundsPerSecond fixes how much work one second of --seconds buys on each
// workload: the sequence length is a function of (seed, seconds) only, so
// every run of one seed releases the same values and the digest can be
// compared across runs. The constants were set so that a run takes about
// --seconds on a 2-vCPU host.
var roundsPerSecond = map[string]float64{
	"sql-joins":     1.35,
	"graph-append":  1.6,
	"graph-sampled": 3.8,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sql-joins", "graph-append", "graph-sampled"}

// buildWorkload generates the named workload's inputs and operations.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	rate, ok := roundsPerSecond[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	rounds := int(rate*float64(seconds) + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	// Each workload draws from its own stream, so adding a workload never
	// changes another's inputs.
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(len(name))*7919 + int64(name[len(name)-1])))
	b := &builder{w: &workload{name: name}, rng: rng}
	switch name {
	case "sql-joins":
		b.sqlJoins(rounds)
	case "graph-append":
		b.graphAppend(rounds)
	case "graph-sampled":
		b.graphSampled(rounds)
	}
	return b.w, nil
}

type builder struct {
	w   *workload
	rng *rand.Rand
	eps int // ε counter: every release gets an ε no earlier release used
}

// nextEps returns a fresh ε near 0.5, so a hit never replays a recorded
// release and the ladder searches land on the memoized rungs.
func (b *builder) nextEps() float64 {
	b.eps++
	return 0.5 + float64(b.eps)*1e-6
}

func mustJSON(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are marshalled
	}
	return out
}

func (b *builder) put(to *[]op, ds string, text string, edges int) {
	up := &service.UploadRequest{Kind: "graph", Graph: text}
	*to = append(*to, op{class: classPut, method: "PUT", path: "/v1/datasets/" + ds, body: mustJSON(up),
		dataset: ds, upload: up, edges: edges})
}

func (b *builder) putTables(to *[]op, ds string, tables map[string]string) {
	up := &service.UploadRequest{Kind: "relational", Tables: tables}
	*to = append(*to, op{class: classPut, method: "PUT", path: "/v1/datasets/" + ds, body: mustJSON(up),
		dataset: ds, upload: up, edges: -1})
}

func (b *builder) patch(to *[]op, ds string, ap *service.AppendRequest, edges int) *op {
	*to = append(*to, op{class: classPatch, method: "PATCH", path: "/v1/datasets/" + ds, body: mustJSON(ap),
		dataset: ds, patch: ap, edges: edges})
	return &(*to)[len(*to)-1]
}

func (b *builder) ask(to *[]op, class opClass, req service.Request) *op {
	path := "/v2/query"
	if class == classPrepare {
		path = "/v2/prepare"
	} else {
		req.Epsilon = b.nextEps()
	}
	q := req
	*to = append(*to, op{class: class, method: "POST", path: path, body: mustJSON(&q),
		dataset: req.Dataset, query: &q, edges: -1})
	return &(*to)[len(*to)-1]
}

func (b *builder) replay(to *[]op, of int) {
	o := (*to)[of]
	o.class, o.replayOf = classReplay, of
	o.roundStart, o.fresh, o.hit, o.writeSample, o.write, o.lastRead = false, false, false, false, false, false
	*to = append(*to, o)
}

// ---- sql-joins ------------------------------------------------------------

const (
	sqlCommunities = 50
	sqlPeople      = 40 // per community
	sqlFriendships = 80 // per community: average degree 4 inside it
	sqlDashboards  = 2  // communities with standing dashboards
	sqlFreshPer    = 3  // ad-hoc queries per round
	sqlHitsPer     = 24 // dashboard releases at a new ε per round
	sqlAppendsPer  = 3  // friendships appended per round, one PATCH each
)

func person(c, i int) string { return fmt.Sprintf("p%d_%d", c, i) }

// friendship writes the two rows of one friendship, each annotated with
// both people: the row exists only while both participate.
func friendship(sb *strings.Builder, c, u, v int) {
	for _, p := range [2][2]int{{u, v}, {v, u}} {
		a, b := person(c, p[0]), person(c, p[1])
		fmt.Fprintf(sb, "%s %s c%d @ %s & %s\n", a, b, c, a, b)
	}
}

// commonFriends is the Fig. 2(b) join: pairs of friends and a friend they
// share, all inside one community. excl, when not empty, drops one member
// from every role — the ad-hoc variant tenants ask about.
func commonFriends(c int, excl string) string {
	q := fmt.Sprintf("SELECT a, b, z FROM friends(a, b, c), friends(a, z, c), friends(b, z, c) WHERE c = 'c%d'", c)
	if excl != "" {
		q += fmt.Sprintf(" AND a != '%s' AND b != '%s' AND z != '%s'", excl, excl, excl)
	}
	return q
}

// twoHop lists the friend-of-friend paths from one member of a community.
func twoHop(c int, from string) string {
	return fmt.Sprintf("SELECT b, z FROM friends(a, b, c), friends(b, z, c) WHERE c = 'c%d' AND a = '%s' AND z != '%s'", c, from, from)
}

// twoHopPaths counts the friend-of-friend paths from u: what twoHop lists.
func (s *edgeSet) twoHopPaths(u int) int {
	n := 0
	for _, b := range s.adj[u] {
		n += len(s.adj[b]) - 1
	}
	return n
}

// sqlJoins: a social table friends(x, y, c) of ~8k node-annotated rows,
// two communities with standing dashboards (common friends and the 2-hop
// paths of one member), and rounds of ad-hoc common-friends queries,
// dashboard hits, replays, and appended friendships after which the
// dashboards are asked again. The dashboard communities are drawn with
// 10–11 triangles (G(40, 80) averages 10.7) and the 2-hop member is the
// one whose path count is nearest 16 (the average), and no append touches
// them, so a refresh costs about the same in every round and every seed.
func (b *builder) sqlJoins(rounds int) {
	rng := b.rng
	dash := rng.Perm(sqlCommunities)[:sqlDashboards]
	isDash := map[int]bool{}
	for _, c := range dash {
		isDash[c] = true
	}
	comms := make([]*edgeSet, sqlCommunities)
	var sb strings.Builder
	sb.WriteString("x y c\n")
	for c := range comms {
		if isDash[c] {
			comms[c] = gnmWhere(rng, sqlPeople, sqlFriendships, (*edgeSet).triangles, 10, 11)
		} else {
			comms[c] = gnm(rng, sqlPeople, sqlFriendships)
		}
		for _, e := range comms[c].edges {
			friendship(&sb, c, e[0], e[1])
		}
	}
	const ds = "social"
	b.putTables(&b.w.setup, ds, map[string]string{"friends": sb.String()})
	var dashReqs []service.Request
	for _, c := range dash {
		from, best := 0, -1
		for _, m := range rng.Perm(sqlPeople) {
			if d := abs(comms[c].twoHopPaths(m) - 16); best < 0 || d < best {
				from, best = m, d
			}
		}
		dashReqs = append(dashReqs,
			service.Request{Dataset: ds, Kind: "sql", Query: commonFriends(c, "")},
			service.Request{Dataset: ds, Kind: "sql", Query: twoHop(c, person(c, from))})
	}
	for _, r := range dashReqs {
		b.ask(&b.w.setup, classPrepare, r)
	}
	// Ad-hoc queries draw (community, member) pairs without replacement, so
	// every one compiles a plan no earlier request cached.
	pairs := rng.Perm(sqlCommunities * sqlPeople)
	next := 0
	ops := &b.w.ops
	for r := 0; r < rounds; r++ {
		for i := 0; i < sqlFreshPer; i++ {
			p := pairs[next%len(pairs)]
			next++
			c, m := p/sqlPeople, p%sqlPeople
			o := b.ask(ops, classFresh, service.Request{Dataset: ds, Kind: "sql", Query: commonFriends(c, person(c, m))})
			o.fresh, o.roundStart = true, i == 0
			b.replay(ops, len(*ops)-1)
		}
		for i := 0; i < sqlHitsPer; i++ {
			b.ask(ops, classHit, dashReqs[rng.Intn(len(dashReqs))]).hit = true
			b.replay(ops, len(*ops)-1)
		}
		// New friendships outside the dashboard communities, one a PATCH;
		// the dashboards of the new generation compile from scratch (SQL
		// plans have no incremental path), which is the refresh a tenant
		// waits for after the last append.
		for i := 0; i < sqlAppendsPer; i++ {
			c := rng.Intn(sqlCommunities)
			for isDash[c] {
				c = rng.Intn(sqlCommunities)
			}
			e, ok := comms[c].randomNonEdge(rng, false)
			for !ok {
				e, ok = comms[c].randomNonEdge(rng, false)
			}
			comms[c].add(e)
			var rows strings.Builder
			friendship(&rows, c, e[0], e[1])
			o := b.patch(ops, ds, &service.AppendRequest{Rows: map[string]string{"friends": rows.String()}}, -1)
			o.writeSample, o.write = true, i == sqlAppendsPer-1
		}
		for i, q := range dashReqs {
			b.ask(ops, classBattery, q).lastRead = i == len(dashReqs)-1
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---- graph workloads ------------------------------------------------------

// largeGraph draws the 150-node, average-degree-8 graph of the graph
// workloads, with 81–89 triangles (G(150, 600) averages 85).
func largeGraph(rng *rand.Rand) *edgeSet {
	return gnmWhere(rng, 150, 600, (*edgeSet).triangles, 81, 89)
}

// graphBattery is the standing battery on a 150-node graph: node- and
// edge-privacy triangles and 2-triangles.
func graphBattery(ds, mode string) []service.Request {
	return []service.Request{
		{Dataset: ds, Kind: "triangles", Mode: mode},
		{Dataset: ds, Kind: "triangles", Privacy: "edge", Mode: mode},
		{Dataset: ds, Kind: "ktriangles", K: 2, Mode: mode},
	}
}

// sideFresh replaces a 60-node side graph and asks node-privacy triangles
// on it: a small compile from scratch that neither the append path nor
// the re-warm touches, so fresh_*_ms has one operation shape here too.
func (b *builder) sideFresh(ops *[]op) {
	g := gnmWhere(b.rng, 60, 180, (*edgeSet).triangles, 33, 37)
	text, m := edgeList(g.n, g.edges)
	b.put(ops, "side", text, m)
	b.ask(ops, classFresh, service.Request{Dataset: "side", Kind: "triangles"}).fresh = true
}

// graphAppend: three 150-node graphs whose batteries are prepared at
// set-up; every visit appends 3 new edges to one of them in turn and asks
// its battery again at once, racing the service's background re-warm of
// the battery's plans. Each appended edge closes exactly one triangle, so
// every append changes what the battery counts by the same amount: one
// cost mode per visit. Rotating over three graphs averages the run over
// three graph structures.
func (b *builder) graphAppend(rounds int) {
	var graphs []*edgeSet
	for k := 0; k < 3; k++ {
		graphs = append(graphs, largeGraph(b.rng))
	}
	b.appendRounds(rounds, appendSpec{graphs: graphs, prefix: "g", closing: true, sidesPer: 1})
}

// graphSampled: one 100k-node, 200k-edge clustered graph answered by the
// sampling estimator; every round appends 3 edges, which rebuilds the
// whole adjacency, and asks the sampled battery again. (At 300k nodes and
// 600k edges the runs drew several times the host's steal time and the
// release latencies spread past their bounds.)
func (b *builder) graphSampled(rounds int) {
	b.appendRounds(rounds, appendSpec{graphs: []*edgeSet{clustered(b.rng, 100_000, 200_000, 0.5)},
		prefix: "web", mode: "sampled", sidesPer: 2})
}

// appendSpec shapes an append workload.
type appendSpec struct {
	graphs   []*edgeSet // one dataset each, appended to in turn
	prefix   string     // dataset i is named prefix+i
	mode     string     // "" (the service picks exact here) or "sampled"
	closing  bool       // every appended edge closes exactly one triangle
	sidesPer int        // side-graph compiles per round: fresh_*_ms samples
}

// graphHitsPer is how many releases at a new ε each visit asks of the
// battery's first plan once the battery has answered.
const graphHitsPer = 12

func (b *builder) appendRounds(rounds int, spec appendSpec) {
	// rounds counts visits, one graph each. A timed round (roundStart)
	// visits every graph once, so each timed round costs the same.
	per := len(spec.graphs)
	rounds = (rounds + per - 1) / per * per
	batteries := make([][]service.Request, len(spec.graphs))
	for k, g := range spec.graphs {
		ds := fmt.Sprintf("%s%d", spec.prefix, k)
		batteries[k] = graphBattery(ds, spec.mode)
		if spec.mode == "sampled" {
			batteries[k][1] = service.Request{Dataset: ds, Kind: "kstars", K: 2, Mode: spec.mode}
		}
		text, m := edgeList(g.n, g.edges)
		b.put(&b.w.setup, ds, text, m)
		for _, r := range batteries[k] {
			b.ask(&b.w.setup, classPrepare, r)
		}
	}
	ops := &b.w.ops
	for r := 0; r < rounds; r++ {
		k := r % len(spec.graphs)
		g, battery := spec.graphs[k], batteries[k]
		var sb strings.Builder
		for added := 0; added < 3; {
			e, ok := g.randomNonEdge(b.rng, spec.closing)
			if !ok || (spec.closing && g.common(e[0], e[1]) != 1) {
				continue
			}
			g.add(e)
			fmt.Fprintf(&sb, "%d %d\n", e[0], e[1])
			added++
		}
		o := b.patch(ops, battery[0].Dataset, &service.AppendRequest{Edges: sb.String()}, len(g.edges))
		o.roundStart, o.writeSample, o.write = k == 0, true, true
		for i, q := range battery {
			b.ask(ops, classBattery, q).lastRead = i == len(battery)-1
		}
		for i := 0; i < graphHitsPer; i++ {
			b.ask(ops, classHit, battery[0]).hit = true
		}
		for i := 0; i < spec.sidesPer; i++ {
			b.sideFresh(ops)
		}
	}
}

// ---- graph generators -----------------------------------------------------
//
// The benchmark owns its generators: inputs must not change when the
// program's own generators do.

type edgeSet struct {
	n     int
	edges [][2]int
	set   map[uint64]struct{}
	adj   [][]int32
}

func newEdgeSet(n int) *edgeSet {
	return &edgeSet{n: n, set: make(map[uint64]struct{}), adj: make([][]int32, n)}
}

func edgeKey(e [2]int) uint64 { return uint64(e[0])<<32 | uint64(e[1]) }

func (s *edgeSet) has(e [2]int) bool { _, ok := s.set[edgeKey(e)]; return ok }

// add inserts a new edge given with e[0] < e[1].
func (s *edgeSet) add(e [2]int) {
	s.set[edgeKey(e)] = struct{}{}
	s.edges = append(s.edges, e)
	s.adj[e[0]] = append(s.adj[e[0]], int32(e[1]))
	s.adj[e[1]] = append(s.adj[e[1]], int32(e[0]))
}

// randomNonEdge draws a pair that is not an edge yet, ordered u < v. With
// closing, the pair closes a wedge u–x–v, so adding it makes a triangle.
// ok is false when the draw missed; the caller draws again.
func (s *edgeSet) randomNonEdge(rng *rand.Rand, closing bool) ([2]int, bool) {
	u, v := rng.Intn(s.n), rng.Intn(s.n)
	if closing {
		if len(s.adj[u]) == 0 {
			return [2]int{}, false
		}
		x := s.adj[u][rng.Intn(len(s.adj[u]))]
		v = int(s.adj[x][rng.Intn(len(s.adj[x]))])
	}
	if u > v {
		u, v = v, u
	}
	e := [2]int{u, v}
	return e, u != v && !s.has(e)
}

// gnm draws m distinct undirected edges (u < v) on n nodes, listed in
// sorted order.
func gnm(rng *rand.Rand, n, m int) *edgeSet {
	s := newEdgeSet(n)
	for len(s.edges) < m {
		if e, ok := s.randomNonEdge(rng, false); ok {
			s.add(e)
		}
	}
	sort.Slice(s.edges, func(i, j int) bool {
		if s.edges[i][0] != s.edges[j][0] {
			return s.edges[i][0] < s.edges[j][0]
		}
		return s.edges[i][1] < s.edges[j][1]
	})
	return s
}

// triangles counts the triangles of s.
func (s *edgeSet) triangles() int {
	t := 0
	for _, e := range s.edges {
		t += s.common(e[0], e[1])
	}
	return t / 3
}

// common counts the common neighbours of u and v.
func (s *edgeSet) common(u, v int) int {
	c := 0
	for _, x := range s.adj[u] {
		e := [2]int{int(x), v}
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		if int(x) != v && s.has(e) {
			c++
		}
	}
	return c
}

// twoStars counts the 2-stars of s: the sum over nodes of C(degree, 2).
func (s *edgeSet) twoStars() int {
	t := 0
	for _, a := range s.adj {
		t += len(a) * (len(a) - 1) / 2
	}
	return t
}

// gnmWhere draws gnm graphs until stat falls in [lo, hi]. The workload
// figures follow the size of what the battery counts far more than the
// graph's size, so pinning that count keeps one seed's run comparable to
// another's while the graphs stay random.
func gnmWhere(rng *rand.Rand, n, m int, stat func(*edgeSet) int, lo, hi int) *edgeSet {
	for {
		s := gnm(rng, n, m)
		if v := stat(s); v >= lo && v <= hi {
			return s
		}
	}
}

// clustered grows an n-node, m-edge graph in which a triad share of the
// edges close a wedge (u–v–w gains u–w) and the rest join random pairs,
// giving the skewed, triangle-rich shape of a social graph.
func clustered(rng *rand.Rand, n, m int, triad float64) *edgeSet {
	s := newEdgeSet(n)
	for len(s.edges) < m {
		if e, ok := s.randomNonEdge(rng, rng.Float64() < triad); ok {
			s.add(e)
		}
	}
	return s
}

// edgeList renders edges in graph.ReadEdgeList format with the node count
// pinned by the header, returning the text and the edge count.
func edgeList(n int, edges [][2]int) (string, int) {
	var sb strings.Builder
	sb.Grow(len(edges) * 14)
	fmt.Fprintf(&sb, "# nodes %d\n", n)
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d %d\n", e[0], e[1])
	}
	return sb.String(), len(edges)
}
