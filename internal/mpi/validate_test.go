package mpi

import (
	"errors"
	"strings"
	"testing"

	"mpinet/internal/cluster"
)

// TestValidateNamesOffendingOption: every validation failure is a
// *ConfigError carrying the Config field that caused it.
func TestValidateNamesOffendingOption(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		option string
	}{
		{"nil net", Config{Procs: 2}, "Net"},
		{"zero procs", Config{Net: cluster.IBA().New(2)}, "Procs"},
		{"negative ppn", Config{Net: cluster.IBA().New(2), Procs: 2, ProcsPerNode: -1}, "ProcsPerNode"},
		{"overfull", Config{Net: cluster.IBA().New(2), Procs: 5, ProcsPerNode: 2}, "Procs"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error is %T, want *ConfigError: %v", tc.name, err, err)
			continue
		}
		if ce.Option != tc.option {
			t.Errorf("%s: blamed option %q, want %q (%v)", tc.name, ce.Option, tc.option, err)
		}
	}
}

// TestMustWorldPanicNamesOption: the panic message carries the offending
// option name, not just a symptom.
func TestMustWorldPanicNamesOption(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustWorld accepted an invalid config")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Config.Procs") {
			t.Fatalf("panic message does not name the offending option: %v", r)
		}
	}()
	MustWorld(Config{Net: cluster.IBA().New(2), Procs: 5, ProcsPerNode: 2})
}

// TestMustWorldPanicNamesPlatformOption: an invalid platform panics with
// its own typed error, which names the platform option, not with the
// symptom Config validation reports on the network's zero nodes.
func TestMustWorldPanicNamesPlatformOption(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustWorld accepted an invalid platform")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invalid Clos(3, 7, 2)") {
			t.Fatalf("panic message does not name the offending option: %v", r)
		}
	}()
	MustWorld(Config{Net: cluster.IBA().With(cluster.Clos(3, 7, 2)).New(8), Procs: 8})
}
