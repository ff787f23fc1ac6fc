package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestBudgetOutcomeClassification pins the access log's "outcome" string
// for every typed error the serving layer produces: operators grep and
// alert on these literals, so a reclassification is a breaking change even
// though no Go API moved.
func TestBudgetOutcomeClassification(t *testing.T) {
	cases := []struct {
		name   string
		cached bool
		err    error
		want   string
	}{
		{"fresh release", false, nil, "spent"},
		{"cache replay", true, nil, "replayed"},
		{"budget exhausted", false, &BudgetError{Dataset: "g", Requested: 1, Remaining: 0.25}, "rejected"},
		{"budget exhausted wrapped", false, fmt.Errorf("do: %w", &BudgetError{Dataset: "g"}), "rejected"},
		{"canceled", false, context.Canceled, "refunded"},
		{"deadline exceeded", false, context.DeadlineExceeded, "refunded"},
		{"canceled wrapped", false, fmt.Errorf("execute: %w", context.Canceled), "refunded"},
		{"bad request", false, badRequestf("unknown kind"), "none"},
		{"invalid tail", false, failf(ErrInvalidTail, "tail parameter must be positive and finite, got %g", -1.0), "none"},
		{"unknown dataset", false, unknownDataset("nope"), "none"},
		{"accuracy disabled", false, failf(ErrAccuracyDisabled, "accuracy reporting is not enabled on this server"), "none"},
		{"untyped failure", false, errors.New("boom"), "none"},
		// An error wins over the cached flag: a replay that somehow failed
		// must not log as a successful zero-ε replay.
		{"error beats cached", true, &BudgetError{Dataset: "g"}, "rejected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := budgetOutcome(tc.cached, tc.err); got != tc.want {
				t.Errorf("budgetOutcome(cached=%v, %v) = %q, want %q", tc.cached, tc.err, got, tc.want)
			}
		})
	}
}
