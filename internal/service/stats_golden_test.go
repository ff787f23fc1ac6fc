package service

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/store"
)

// statsShapeGolden is the GET /v1/stats document of a durable service that
// has served a fresh query, a replay, an append and an advance, with every
// number masked to 0: the wire's key sequence, nesting and string values.
// API.md documents this shape; a change here is a wire change.
const statsShapeGolden = `{
  "uptimeSeconds": 0,
  "datasets": 0,
  "queries": {
    "fresh": 0,
    "planHit": 0,
    "replayed": 0,
    "canceled": 0,
    "budgetRejected": 0,
    "badRequest": 0,
    "errors": 0
  },
  "jobs": {
    "submitted": 0,
    "done": 0,
    "failed": 0,
    "canceled": 0,
    "rejected": 0,
    "active": 0
  },
  "caches": {
    "plan": {
      "entries": 0,
      "hits": 0,
      "misses": 0,
      "coalesced": 0,
      "evictions": 0,
      "hitRatio": 0
    },
    "release": {
      "entries": 0,
      "hits": 0,
      "misses": 0,
      "coalesced": 0,
      "evictions": 0,
      "hitRatio": 0
    }
  },
  "workers": {
    "total": 0,
    "busy": 0
  },
  "compilePool": {
    "size": 0,
    "busy": 0,
    "tasksInFlight": 0,
    "fanouts": 0,
    "tasksTotal": 0,
    "fanoutsTotal": 0,
    "fanoutsInline": 0
  },
  "compiles": {
    "count": 0,
    "buildSeconds": 0,
    "encodeSeconds": 0,
    "totalSeconds": 0,
    "last": {
      "kind": "triangles",
      "privacy": "node",
      "participants": 0,
      "tuples": 0,
      "sharded": false,
      "buildSeconds": 0,
      "encodeSeconds": 0,
      "totalSeconds": 0
    }
  },
  "traces": {
    "started": 0,
    "finished": 0,
    "retained": 0,
    "spansDropped": 0,
    "slowLogged": 0
  },
  "lp": {
    "solves": 0,
    "pivots": 0,
    "interrupts": 0,
    "warmAttempts": 0,
    "warmApplied": 0,
    "warmDiscarded": 0
  },
  "runtime": {
    "goroutines": 0,
    "heapBytes": 0,
    "gcPauseSeconds": 0,
    "gcCycles": 0,
    "gomaxprocs": 0
  },
  "store": {
    "walAppends": 0,
    "walBytes": 0,
    "compactions": 0,
    "compactionErrors": 0,
    "fsyncCount": 0,
    "fsyncSecondsSum": 0
  },
  "accuracy": {
    "triangles": {
      "releases": 0,
      "meanPredictedError": 0,
      "meanNoiseMagnitude": 0
    }
  },
  "estimator": {
    "sampledReleases": 0,
    "exactReleases": 0
  },
  "deltaCompiles": {
    "appends": 0,
    "advances": 0,
    "fallbacks": 0,
    "identical": 0,
    "tuplesReused": 0,
    "tuplesEncoded": 0,
    "valuesCarried": 0,
    "unitsTotal": 0,
    "unitsDirty": 0
  }
}`

// jsonNumber matches one JSON number value following its object key.
var jsonNumber = regexp.MustCompile(`("[^"]*":)-?[0-9][0-9.eE+-]*`)

// TestStatsWireShape pins the /v1/stats wire shape: every section keeps
// its keys, in order, whichever package's snapshot type renders it.
func TestStatsWireShape(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One compile worker keeps compiles.last.sharded false on any machine.
	s, warns := NewWithStore(Config{DatasetBudget: 10, Workers: 1, CompileParallelism: 1, Seed: 1}, st)
	if len(warns) != 0 {
		t.Fatalf("boot warnings: %v", warns)
	}
	g := graph.RandomAverageDegree(noise.NewRand(5), 16, 4)
	if _, err := s.UploadGraph("g", []byte(graphText(g))); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5}
	for i, wantCached := range []bool{false, true} { // a fresh query, then its replay
		resp, err := s.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached != wantCached {
			t.Fatalf("query %d: cached=%v, want %v", i, resp.Cached, wantCached)
		}
	}
	if _, err := s.AppendDataset("g", AppendRequest{Edges: freshEdges(g, 1)[0]}); err != nil {
		t.Fatal(err)
	}
	s.rewarmWG.Wait() // the append's advance
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, jsonNumber.ReplaceAll(raw, []byte("${1}0")), "", "  "); err != nil {
		t.Fatal(err)
	}
	if got.String() != statsShapeGolden {
		t.Fatalf("/v1/stats wire shape changed; got:\n%s", got.String())
	}
}
