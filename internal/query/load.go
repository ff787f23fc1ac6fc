package query

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"recmech/internal/boolexpr"
	"recmech/internal/krel"
)

// LoadTable parses the annotated-table text format:
//
//	# comments and blank lines are skipped
//	x y            ← first content line: attribute names
//	a b @ a & b    ← row values, then optional "@ annotation"
//	b c @ b & c
//
// Annotation expressions use the boolexpr syntax (&, |, parentheses, true,
// false); their variables are resolved (and allocated) in u, so several
// tables loaded with the same universe share participants. A row without an
// annotation is always present (annotated True) — appropriate only for
// public reference data.
func LoadTable(r io.Reader, u *boolexpr.Universe) (*krel.Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), 1<<24)
	var rel *krel.Relation
	arity := 0
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if rel == nil {
			attrs := strings.Fields(strings.ToLower(text))
			rel = krel.NewRelation(attrs...)
			arity = len(attrs)
			continue
		}
		values, ann, err := splitRow(text, u)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if len(values) != arity {
			return nil, fmt.Errorf("line %d: %d values, table has %d columns", line, len(values), arity)
		}
		rel.Add(krel.Tuple(values), ann)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rel == nil {
		return nil, fmt.Errorf("query: empty table file")
	}
	return rel, nil
}

func splitRow(text string, u *boolexpr.Universe) ([]string, *boolexpr.Expr, error) {
	valuePart, annPart, hasAnn := strings.Cut(text, "@")
	values := strings.Fields(valuePart)
	if !hasAnn {
		return values, boolexpr.True(), nil
	}
	ann, err := boolexpr.Parse(strings.TrimSpace(annPart), u)
	if err != nil {
		return nil, nil, err
	}
	return values, ann, nil
}

// WriteTable renders a relation in the LoadTable format.
func WriteTable(w io.Writer, rel *krel.Relation, u *boolexpr.Universe) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, strings.Join(rel.Attrs(), " ")); err != nil {
		return err
	}
	var outerErr error
	rel.Each(func(t krel.Tuple, ann *boolexpr.Expr) {
		if outerErr != nil {
			return
		}
		annText := strings.NewReplacer("∧", "&", "∨", "|").Replace(u.Format(ann))
		_, outerErr = fmt.Fprintf(bw, "%s @ %s\n", strings.Join(t, " "), annText)
	})
	if outerErr != nil {
		return outerErr
	}
	return bw.Flush()
}
