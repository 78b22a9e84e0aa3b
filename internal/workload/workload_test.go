package workload

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{"stream", Spec{Name: "stream"}},
		{"amber:JAC", Spec{Name: "amber", Arg: "JAC"}},
		{"lammps:eam", Spec{Name: "lammps", Arg: "eam"}},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.String() != tc.in {
			t.Fatalf("Spec%+v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseSpec(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := ParseSpec(":JAC"); err == nil {
		t.Fatal("empty name with arg accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"amber", "cg", "daxpy", "dgemm", "ep", "fft", "ft", "hpl",
		"lammps", "lmbench", "mg", "pop", "ptrans", "ra", "stream",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDefaultsResolve: every family must resolve with a zero-extra spec
// (amber and lammps need a variant) and produce a runnable body.
func TestDefaultsResolve(t *testing.T) {
	for _, name := range Names() {
		spec := Spec{Name: name}
		switch name {
		case "amber":
			spec.Arg = "JAC"
		case "lammps":
			spec.Arg = "lj"
		}
		wl, err := New(spec)
		if err != nil {
			t.Fatalf("New(%+v): %v", spec, err)
		}
		if wl.Body == nil {
			t.Fatalf("%s: nil body", name)
		}
		// lmbench reports through per-test keys; every other family
		// declares at least one display metric.
		if name != "lmbench" && len(wl.Metrics) == 0 {
			t.Fatalf("%s: no metrics", name)
		}
		for _, m := range wl.Metrics {
			if m.Key == "" || m.Label == "" || m.Format == nil {
				t.Fatalf("%s: incomplete metric %+v", name, m)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	_, err := New(Spec{Name: "nbody"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "known:") {
		t.Fatalf("error should list known names: %v", err)
	}
}

func TestVariantValidation(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		what string
	}{
		{Spec{Name: "stream", Arg: "bogus"}, "a variant argument for stream"},
		{Spec{Name: "amber"}, "amber without a benchmark name"},
		{Spec{Name: "amber", Arg: "nope"}, "an unknown amber benchmark"},
		{Spec{Name: "lammps", Arg: "nope"}, "an unknown lammps potential"},
		{Spec{Name: "cg", Class: "Z"}, "an unknown cg class"},
		{Spec{Name: "dgemm", N: -5}, "a negative dgemm size"},
		{Spec{Name: "pop", Steps: -3}, "a negative pop step count"},
		{Spec{Name: "lammps", Arg: "lj", Steps: -1}, "a negative lammps step count"},
	} {
		if _, err := New(tc.spec); err == nil {
			t.Errorf("New(%+v) accepted %s", tc.spec, tc.what)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("stream", func(Spec) (Workload, error) { return Workload{}, nil })
}
