package main

import (
	"io"
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-sample"}, []string{"query: SELECT ", "joins: 16 ", "estimated cost: ", "compile memory: "}},
		{[]string{"SELECT COUNT(*) FROM dim_store JOIN dim_city ON dim_store.city_id = dim_city.city_id GROUP BY dim_city.region_id"},
			[]string{"joins: 1 ", "HashJoin ", "execution grant: "}},
	} {
		var out strings.Builder
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("explain %v: %v", tc.args, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("explain %v: output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
}

func TestExplainErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, // neither SQL nor -sample
		{"-scenario", "no-such", "-sample"},
		{"SELECT FROM"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("explain %v: no error", args)
		}
	}
}
