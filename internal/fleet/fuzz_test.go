package fleet

import (
	"testing"

	"repro/internal/ctsim"
	"repro/internal/policyspec"
	"repro/internal/shared"
)

// buildEveryClass compiles spec and builds every class's pooled object
// set on one lane — the policy through its constructor, the arrival
// source, and (CT mode) the validated simulator config wired to res —
// failing the test on any error: a spec that validated must run.
func buildEveryClass(t *testing.T, spec Spec, res ctsim.Resource) {
	t.Helper()
	r, err := newRunner(spec)
	if err != nil {
		t.Fatalf("validated spec does not compile: %v", err)
	}
	var ln lane
	for ci := range r.classes {
		if _, err := ln.classState(r, ci, res); err != nil {
			t.Fatalf("class %d (%s) does not build: %v", ci, r.classes[ci].name, err)
		}
	}
}

// FuzzParseMix: ParseMix never panics, and every mix it accepts is
// model-free and builds every class in both modes. The corpus
// (testdata/fuzz/FuzzParseMix) holds the malformed policy parameters
// that once validated and then failed every shard at run time.
func FuzzParseMix(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		classes, err := ParseMix(s)
		if err != nil {
			return
		}
		for _, c := range classes {
			if pol, _ := policyspec.Parse(c.Policy); pol.NeedsRate() {
				t.Fatalf("accepted model-based policy %q", c.Policy)
			}
		}
		for _, mode := range []Mode{ModeCT, ModeSlot} {
			buildEveryClass(t, Spec{Devices: 1, Classes: classes, Mode: mode, Horizon: 1}, nil)
		}
	})
}

// FuzzParseFaults: ParseFaults never panics, and every fault spec that
// then passes Spec.Validate (on a coupled CT spec, where every key
// applies) round-trips through String and builds every class's
// faulted simulator config.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		fs, err := ParseFaults(s)
		if err != nil {
			return
		}
		spec := Spec{Devices: 1, Classes: DefaultMix(), Horizon: 1, Couple: CoupleChannel, Faults: fs}
		if spec.Validate() != nil {
			return
		}
		back, err := ParseFaults(fs.String())
		if err != nil || *back != *fs {
			t.Fatalf("validated fault spec %+v does not round-trip through %q: %+v, %v", *fs, fs.String(), back, err)
		}
		buildEveryClass(t, spec, shared.NewChannel())
	})
}
