package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// renderSuite runs the suite drivers at the given worker count and returns
// the concatenated output document. In -short mode only the micro suite
// renders (the race shard's budget); the full document comparison runs in
// the long mode and, binary-level, in the CI determinism smoke.
func renderSuite(t *testing.T, jobs int) string {
	r := NewRunner(true, nil)
	r.Jobs = jobs
	var out bytes.Buffer
	r.RunMicro(&out)
	if !testing.Short() {
		r.RunApps(&out)
		r.RunExtensions(&out)
	}
	return out.String()
}

// TestSuiteByteIdenticalAcrossJobs is the tentpole contract: the quick
// suite rendered at -j 1 and at -j 8 must be byte-identical. On any host,
// at any worker count, which core runs a figure must be unobservable.
func TestSuiteByteIdenticalAcrossJobs(t *testing.T) {
	serial := renderSuite(t, 1)
	parallel := renderSuite(t, 8)
	if serial != parallel {
		t.Fatal("suite output differs between -j 1 and -j 8")
	}
}

// TestComparisonsIdenticalAcrossJobs checks the comparison builders return
// the same slices, in the same order, at any worker count.
func TestComparisonsIdenticalAcrossJobs(t *testing.T) {
	serial := NewRunner(true, nil)
	serial.Jobs = 1
	par := NewRunner(true, nil)
	par.Jobs = 8
	if a, b := serial.MicroComparisons(), par.MicroComparisons(); !reflect.DeepEqual(a, b) {
		t.Error("MicroComparisons differ between -j 1 and -j 8")
	}
	if a, b := serial.Table1Comparisons(), par.Table1Comparisons(); !reflect.DeepEqual(a, b) {
		t.Error("Table1Comparisons differ between -j 1 and -j 8")
	}
}

// TestSingleflightAppCache checks concurrent tables needing the same
// configuration share one simulation: RunApps at -j 8 must leave exactly as
// many cache entries as at -j 1.
func TestSingleflightAppCache(t *testing.T) {
	count := func(jobs int) int {
		r := NewRunner(true, nil)
		r.Jobs = jobs
		var out bytes.Buffer
		r.RunApps(&out)
		return len(r.appCache)
	}
	serial, par := count(1), count(8)
	if serial != par {
		t.Errorf("app cache entries: %d at -j 1, %d at -j 8", serial, par)
	}
}
