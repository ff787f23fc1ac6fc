package query

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"recmech/internal/boolexpr"
	"recmech/internal/krel"
)

func TestLoadTableBasic(t *testing.T) {
	u := boolexpr.NewUniverse()
	src := `
# edge table, node privacy
x y
a b @ pa & pb
b a @ pa & pb
c d
`
	rel, err := LoadTable(strings.NewReader(src), u)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Attrs(); len(got) != 2 || got[0] != "x" {
		t.Fatalf("attrs = %v", got)
	}
	if rel.Size() != 3 {
		t.Fatalf("size = %d, want 3", rel.Size())
	}
	// Unannotated rows are True.
	if rel.Annotation(krel.Tuple{"c", "d"}).Op() != boolexpr.OpTrue {
		t.Error("row without annotation should be True")
	}
	pa, ok := u.Lookup("pa")
	if !ok {
		t.Fatal("pa not allocated")
	}
	ann := rel.Annotation(krel.Tuple{"a", "b"})
	if !ann.HasVar(pa) {
		t.Errorf("annotation %v missing pa", ann)
	}
}

func TestLoadTableErrors(t *testing.T) {
	u := boolexpr.NewUniverse()
	cases := map[string]string{
		"empty":          "",
		"only comments":  "# nothing\n",
		"arity mismatch": "x y\na\n",
		"bad annotation": "x\na @ ( p\n",
	}
	for name, src := range cases {
		if _, err := LoadTable(strings.NewReader(src), u); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestLoadTableLongLines checks the scanner's buffer grows past its 4 KiB
// start for long lines and still refuses a line over the 16 MiB cap.
func TestLoadTableLongLines(t *testing.T) {
	u := boolexpr.NewUniverse()
	value := strings.Repeat("v", 100<<10)
	src := "# " + strings.Repeat("c", 100<<10) + "\nx\n" + value + " @ pa\n"
	rel, err := LoadTable(strings.NewReader(src), u)
	if err != nil {
		t.Fatalf("100 KiB lines: %v", err)
	}
	if rel.Size() != 1 || rel.Annotation(krel.Tuple{value}).Op() != boolexpr.OpVar {
		t.Fatalf("100 KiB row lost: size %d", rel.Size())
	}
	huge := "x\n" + strings.Repeat("v", 1<<24) + "\n"
	if _, err := LoadTable(strings.NewReader(huge), u); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 16 MiB: %v, want %v", err, bufio.ErrTooLong)
	}
}

func TestWriteTableRoundTrip(t *testing.T) {
	u := boolexpr.NewUniverse()
	rel := krel.NewRelation("x", "y")
	rel.Add(krel.Tuple{"1", "2"}, boolexpr.And(
		boolexpr.NewVar(u.Var("p")), boolexpr.NewVar(u.Var("q"))))
	rel.Add(krel.Tuple{"3", "4"}, boolexpr.Or(
		boolexpr.NewVar(u.Var("p")), boolexpr.NewVar(u.Var("r"))))
	var buf bytes.Buffer
	if err := WriteTable(&buf, rel, u); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(&buf, u)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != rel.Size() {
		t.Fatalf("round trip size %d vs %d", back.Size(), rel.Size())
	}
	rel.Each(func(tu krel.Tuple, ann *boolexpr.Expr) {
		got := back.Annotation(tu)
		if !boolexpr.EqualTruthTable(got, ann) {
			t.Errorf("tuple %v annotation changed: %v vs %v", tu, got, ann)
		}
	})
}

func TestLoadedTablesShareUniverse(t *testing.T) {
	u := boolexpr.NewUniverse()
	t1, err := LoadTable(strings.NewReader("x\na @ shared\n"), u)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := LoadTable(strings.NewReader("y\nb @ shared\n"), u)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 1 {
		t.Fatalf("universe has %d vars, want 1 shared participant", u.Len())
	}
	_ = t1
	_ = t2
}

// End-to-end: load tables, run a join query, release a private count.
func TestLoadQueryReleaseEndToEnd(t *testing.T) {
	u := boolexpr.NewUniverse()
	visits, err := LoadTable(strings.NewReader(`
patient ailment
ana flu @ ana
bo flu @ bo
cy cough @ cy
`), u)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := LoadTable(strings.NewReader(`
ailment doses
flu 3
cough 5
`), u)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Register("visits", visits)
	db.Register("rx", rx)
	out, err := Run(db, "SELECT patient, doses FROM visits, rx")
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 3 {
		t.Fatalf("join size = %d, want 3", out.Size())
	}
	s := krel.NewSensitive(u, out)
	if got := s.TrueAnswer(krel.CountQuery); got != 3 {
		t.Errorf("true count = %v", got)
	}
	if got := s.UniversalSensitivity(krel.CountQuery); got != 1 {
		t.Errorf("ŨS = %v, want 1 (each patient touches one output row)", got)
	}
}
