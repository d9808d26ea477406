package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestSelectExperiments pins -exp resolution: names come back in registry
// order, and a list with any unknown name is refused whole, naming each.
func TestSelectExperiments(t *testing.T) {
	exps := harness.Experiments()
	var all, abls []string
	for _, e := range exps {
		all = append(all, e.Name)
		if strings.HasPrefix(e.Name, "abl-") {
			abls = append(abls, e.Name)
		}
	}
	for _, tc := range []struct {
		list string
		want []string // nil: an error naming each of bad
		bad  []string
	}{
		{list: "all", want: all},
		{list: "ablations", want: abls},
		{list: "abl-mrc,ablations", want: abls},
		{list: "fig8,table1", want: []string{"table1", "fig8"}},
		{list: "table1,nosuch", bad: []string{`"nosuch"`}},
		{list: "nosuch,table1,other", bad: []string{`"nosuch"`, `"other"`}},
		{list: "table1,", bad: []string{`""`}},
	} {
		sel, err := selectExperiments(tc.list, exps)
		var got []string
		for _, e := range sel {
			got = append(got, e.Name)
		}
		switch {
		case tc.want != nil:
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("-exp %q selected %v (err %v), want %v", tc.list, got, err, tc.want)
			}
		case err == nil:
			t.Errorf("-exp %q selected %v, want an error", tc.list, got)
		default:
			for _, s := range append(tc.bad, "valid: all, ablations, table1") {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("-exp %q: error %q does not mention %s", tc.list, err, s)
				}
			}
		}
	}
}
