package repolint

import (
	"reflect"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text       string
		name, args string
		ok         bool
	}{
		{"//repolint:allow wallclock", "allow", "wallclock", true},
		{"//repolint:allow wallclock env -- reason text", "allow", "wallclock env -- reason text", true},
		{"//repolint:hotpath", "hotpath", "", true},
		{"//repolint:allow", "allow", "", true},
		{"// repolint:allow wallclock", "", "", false}, // space after //: a plain comment, per tool-directive convention
		{"// ordinary comment", "", "", false},
		{"//go:build linux", "", "", false},
	}
	for _, c := range cases {
		name, args, ok := parseDirective(c.text)
		if name != c.name || args != c.args || ok != c.ok {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, name, args, ok, c.name, c.args, c.ok)
		}
	}
}

func TestParseAllowArgs(t *testing.T) {
	cases := []struct {
		args string
		want []string
	}{
		{"wallclock", []string{"wallclock"}},
		{"wallclock env", []string{"wallclock", "env"}},
		{"wallclock -- telemetry only, excluded from reports", []string{"wallclock"}},
		{"-- reason with no checks", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := parseAllowArgs(c.args)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseAllowArgs(%q) = %v, want %v", c.args, got, c.want)
		}
	}
}

// TestChecksRegistry pins the allow-grammar surface: every check name
// the documentation promises is registered, and nothing else is.
func TestChecksRegistry(t *testing.T) {
	want := map[string]string{
		"wallclock":  "simdeterminism",
		"globalrand": "simdeterminism",
		"env":        "simdeterminism",
		"sync":       "simdeterminism",
		"mapiter":    "mapiter",
		"poolalias":  "poolalias",
		"bufleak":    "poolalias",
		"alloc":      "hotpathalloc",
		"strmap":     "hotpathalloc",
		"allowdecl":  "allowcheck",
	}
	if !reflect.DeepEqual(Checks, want) {
		t.Errorf("Checks registry = %v, want %v", Checks, want)
	}
}
