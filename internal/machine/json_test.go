package machine

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, orig := range []*Spec{Tiger(), DMZ(), Longs()} {
		data, err := MarshalJSONSpec(orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalJSONSpec(data)
		if err != nil {
			t.Fatalf("%s: %v\n%s", orig.Topo.Name, err, data)
		}
		if got.Topo.NumCores() != orig.Topo.NumCores() {
			t.Fatalf("%s: cores %d != %d", orig.Topo.Name, got.Topo.NumCores(), orig.Topo.NumCores())
		}
		for name, pair := range map[string][2]float64{
			"freq":    {got.FreqHz, orig.FreqHz},
			"mc":      {got.MCBandwidth, orig.MCBandwidth},
			"cache":   {got.CacheBytes, orig.CacheBytes},
			"latency": {got.LocalLatency, orig.LocalLatency},
			"mlp":     {got.MLPRandom, orig.MLPRandom},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-9*math.Abs(pair[1]) {
				t.Fatalf("%s: %s %v != %v", orig.Topo.Name, name, pair[0], pair[1])
			}
		}
	}
}

func TestSpecJSONCustomTopology(t *testing.T) {
	spec := Longs()
	data, err := MarshalJSONSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the built-in name for a parseable fabric spec.
	patched := strings.Replace(string(data), `"Longs"`, `"xbar:8"`, 1)
	got, err := UnmarshalJSONSpec([]byte(patched))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topo.MaxHops() != 1 {
		t.Fatalf("custom topology not applied: diameter %d", got.Topo.MaxHops())
	}
}

func TestSpecJSONRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalJSONSpec([]byte(`{"topology":"nonsense:9"`)); err == nil {
		t.Fatal("truncated JSON should fail")
	}
	if _, err := UnmarshalJSONSpec([]byte(`{"topology":"nonsense:9"}`)); err == nil {
		t.Fatal("unknown topology should fail")
	}
	if _, err := UnmarshalJSONSpec([]byte(`{"topology":"dmz"}`)); err == nil {
		t.Fatal("zero-valued parameters should fail validation")
	}
}

// TestSpecJSONFieldValidation: every named numeric field is checked
// individually — a zero or negative value fails with an error naming
// the JSON field, so spec authors see "mc_bandwidth_gbs", not an
// internal struct name.
func TestSpecJSONFieldValidation(t *testing.T) {
	data, err := MarshalJSONSpec(Tiger())
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]any
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	fields := []string{
		"freq_ghz", "flops_per_cycle", "mc_bandwidth_gbs", "core_issue_gbs",
		"cache_kib", "line_bytes", "l2_bandwidth_gbs", "link_bandwidth_gbs",
	}
	for _, field := range fields {
		for _, bad := range []float64{0, -1} {
			patched := map[string]any{}
			for k, v := range base {
				patched[k] = v
			}
			patched[field] = bad
			enc, err := json.Marshal(patched)
			if err != nil {
				t.Fatal(err)
			}
			_, err = UnmarshalJSONSpec(enc)
			if err == nil {
				t.Errorf("%s=%v accepted, want error", field, bad)
				continue
			}
			if !strings.Contains(err.Error(), `"`+field+`"`) {
				t.Errorf("%s=%v: error %q does not name the field", field, bad, err)
			}
		}
	}
	// The unmodified spec still parses — the loop above is testing the
	// patches, not a broken baseline.
	if _, err := UnmarshalJSONSpec(data); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
}

func TestLoadSpecMissingFile(t *testing.T) {
	if _, err := Resolve("@/nonexistent/spec.json"); err == nil {
		t.Fatal("expected error")
	}
}
