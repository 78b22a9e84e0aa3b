package main

import (
	"slices"
	"strings"
	"testing"

	"multicore/internal/experiments"
	"multicore/internal/paperdata"
)

// TestResolve covers argument resolution: the scale must parse, and
// every argument must select at least one transcribed table, so a typo
// or an untranscribed table fails instead of scoring zero rows.
func TestResolve(t *testing.T) {
	all := len(paperdata.Tables())
	for _, tc := range []struct {
		scale string
		args  []string
		want  []string // nil: every table
		err   string   // non-empty: the error must contain it
	}{
		{scale: "quick"},
		{scale: "full", args: []string{"table2"}, want: []string{"table2-cg", "table2-ft"}},
		{scale: "quick", args: []string{"table9", "table3-ft"}, want: []string{"table3-ft", "table9"}},
		{scale: "quick", args: []string{"table9", "table9"}, want: []string{"table9"}},
		{scale: "bogus", err: "unknown scale"},
		{scale: "quick", args: []string{"nosuchtable"}, err: `"nosuchtable"`},
		{scale: "quick", args: []string{"table5"}, err: "known: table10"},
		{scale: "quick", args: []string{"table9", "table2-c"}, err: `"table2-c"`},
	} {
		sc, ids, err := resolve(tc.scale, tc.args)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("resolve(%q, %q) = %v, %v; want an error containing %s", tc.scale, tc.args, ids, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolve(%q, %q): %v", tc.scale, tc.args, err)
			continue
		}
		if want, _ := experiments.ParseScale(tc.scale); sc != want {
			t.Errorf("resolve(%q, %q) scale = %v, want %v", tc.scale, tc.args, sc, want)
		}
		if tc.want == nil && len(ids) != all || tc.want != nil && !slices.Equal(ids, tc.want) {
			t.Errorf("resolve(%q, %q) = %v, want %v (nil: all %d)", tc.scale, tc.args, ids, tc.want, all)
		}
	}
}

// TestEveryTableHasBinding: each transcribed table names the experiment
// and output table that regenerate it.
func TestEveryTableHasBinding(t *testing.T) {
	for id := range paperdata.Tables() {
		b, ok := bindings[id]
		if !ok {
			t.Errorf("%s: no binding", id)
			continue
		}
		if _, ok := experiments.ByID(b.expID); !ok {
			t.Errorf("%s: bound to unknown experiment %q", id, b.expID)
		}
	}
}
