package subgraph

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/pool"
)

var (
	path3  = NewPattern(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	square = NewPattern(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
)

// sequentialEnumerations runs the sequential enumerators against one graph.
func sequentialEnumerations(g *graph.Graph) map[string][]Match {
	return map[string][]Match{
		"triangles":   Triangles(g),
		"kstars2":     KStars(g, 2),
		"kstars3":     KStars(g, 3),
		"ktriangles2": KTriangles(g, 2),
		"path3":       FindMatches(g, path3, 0),
		"square":      FindMatches(g, square, 0),
	}
}

// retainedEnumerations runs the retained constructor behind each entry of
// sequentialEnumerations, sharded under fan.
func retainedEnumerations(g *graph.Graph, fan Fanout) (map[string][]Match, error) {
	out := map[string][]Match{}
	for name, build := range map[string]func() (*Occurrences, error){
		"triangles":   func() (*Occurrences, error) { return TrianglesRetained(g, fan) },
		"kstars2":     func() (*Occurrences, error) { return KStarsRetained(g, 2, fan) },
		"kstars3":     func() (*Occurrences, error) { return KStarsRetained(g, 3, fan) },
		"ktriangles2": func() (*Occurrences, error) { return KTrianglesRetained(g, 2, fan) },
		"path3":       func() (*Occurrences, error) { return PatternRetained(g, path3, fan) },
		"square":      func() (*Occurrences, error) { return PatternRetained(g, square, fan) },
	} {
		o, err := build()
		if err != nil {
			return nil, err
		}
		out[name] = o.Matches()
	}
	return out, nil
}

// TestShardedEnumerationByteIdentical pins the parallel compile engine's
// foundation: the retained constructors, inline or sharded through a real
// pool, yield exactly the sequential match list — same matches, same order —
// for every enumerator, across graph shapes (including empty and tiny
// graphs where sharding degenerates).
func TestShardedEnumerationByteIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		graph.New(0),
		graph.New(1),
		graph.New(3),
		graph.RandomAverageDegree(noise.NewRand(1), 25, 4),
		graph.RandomAverageDegree(noise.NewRand(2), 40, 6),
		graph.RandomAverageDegree(noise.NewRand(3), 9, 8), // dense
	}
	p := pool.New(4)
	fan := Fanout(p.Fanout(context.Background()))
	for gi, g := range graphs {
		want := sequentialEnumerations(g)
		for rep := 0; rep < 4; rep++ { // repeat: scheduling must never matter
			f := fan
			if rep == 0 {
				f = nil
			}
			got, err := retainedEnumerations(g, f)
			if err != nil {
				t.Fatal(err)
			}
			for name := range want {
				if !reflect.DeepEqual(got[name], want[name]) {
					t.Fatalf("graph %d rep %d: %s: parallel enumeration differs from sequential\nparallel: %v\nsequential: %v",
						gi, rep, name, got[name], want[name])
				}
			}
		}
	}
}

// A canceled fanout must abort a sharded enumeration with the cancellation
// error, not return a partial match list.
func TestFanCancellationAborts(t *testing.T) {
	g := graph.RandomAverageDegree(noise.NewRand(4), 30, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fan := Fanout(pool.New(2).Fanout(ctx))
	if _, err := TrianglesRetained(g, fan); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrianglesRetained error = %v, want context.Canceled", err)
	}
	if _, err := PatternRetained(g, TrianglePattern(), fan); !errors.Is(err, context.Canceled) {
		t.Fatalf("PatternRetained error = %v, want context.Canceled", err)
	}
}

// The relation builders must agree between sequential enumeration and
// sharded retained enumeration fed through BuildRelation — tuple order and
// annotations included — since the K-relation is what the LP encoding
// hashes out of.
func TestRelationFromFannedMatchesIdentical(t *testing.T) {
	g := graph.RandomAverageDegree(noise.NewRand(5), 30, 5)
	p := pool.New(3)
	fan := Fanout(p.Fanout(context.Background()))
	for _, privacy := range []Privacy{NodePrivacy, EdgePrivacy} {
		seq := TriangleRelation(g, privacy)
		o, err := TrianglesRetained(g, fan)
		if err != nil {
			t.Fatal(err)
		}
		par := BuildRelation(g, o.Matches(), privacy, nil)
		if seq.NumParticipants() != par.NumParticipants() {
			t.Fatalf("%v: |P| %d vs %d", privacy, seq.NumParticipants(), par.NumParticipants())
		}
		if !reflect.DeepEqual(seq.Rel, par.Rel) {
			t.Fatalf("%v: relations differ", privacy)
		}
	}
}
