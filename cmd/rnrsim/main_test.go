package main

import (
	"strings"
	"testing"
)

// TestValidateFlags pins the parse-time flag rules. The first two cases
// are the silent-misuse regressions: a negative -cores used to fall
// through the `> 0` build switch and silently run the machine default,
// and -crosscore on a single-program single-core run attached a shared
// prefetcher that can never train. Both must now fail fast, naming the
// offending flag.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		v       flagValues
		wantErr string // substring of the error; "" = must pass
	}{
		{"negative cores rejected", flagValues{Cores: -3, Jobs: 1}, "-cores"},
		{"crosscore without corun or cores", flagValues{CrossCore: true, Jobs: 1}, "-crosscore"},
		{"cores conflicts with corun", flagValues{Cores: 2, CoRun: "pagerank.urand,spcg.bbmat", Jobs: 1}, "-cores"},
		{"zero jobs", flagValues{Jobs: 0}, "-j"},

		{"defaults pass", flagValues{Jobs: 1}, ""},
		{"cores pass", flagValues{Cores: 4, Jobs: 8}, ""},
		{"crosscore with corun", flagValues{CoRun: "pagerank.urand,spcg.bbmat", CrossCore: true, Jobs: 1}, ""},
		{"crosscore with cores", flagValues{Cores: 2, CrossCore: true, Jobs: 1}, ""},
	} {
		err := validateFlags(tc.v)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.v)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantErr)
		}
	}
}
