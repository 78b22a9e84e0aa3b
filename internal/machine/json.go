package machine

import (
	"encoding/json"
	"fmt"

	"multicore/internal/topology"
)

// SpecSchemaVersion is the machine-spec JSON schema emitted by
// MarshalJSONSpec. Version-1 files (no "schema" field, flat fields
// only) are auto-upgraded on read; version 2 adds heterogeneous core
// classes, chiplet dies, the on-package fabric, and a shared LLC tier.
const SpecSchemaVersion = 2

// specJSON is the serialized form of a Spec: the topology is referenced
// by a parseable spec string (see topology.Parse) or a built-in system
// name. Field order here is the canonical emission order — content
// hashes (see RegisterSpecJSON) are taken over these bytes.
type specJSON struct {
	Schema            int     `json:"schema"`
	Topology          string  `json:"topology"`
	FreqGHz           float64 `json:"freq_ghz"`
	FlopsPerCycle     float64 `json:"flops_per_cycle"`
	MCBandwidthGBs    float64 `json:"mc_bandwidth_gbs"`
	CoreIssueGBs      float64 `json:"core_issue_gbs"`
	CacheKiB          float64 `json:"cache_kib"`
	LineBytes         float64 `json:"line_bytes"`
	L2BandwidthGBs    float64 `json:"l2_bandwidth_gbs"`
	LinkBandwidthGBs  float64 `json:"link_bandwidth_gbs"`
	LocalLatencyNs    float64 `json:"local_latency_ns"`
	HopLatencyNs      float64 `json:"hop_latency_ns"`
	ContentionPenalty float64 `json:"contention_penalty"`
	MLPRandom         float64 `json:"mlp_random"`
	PrefetchDepth     float64 `json:"prefetch_depth"`

	// Schema 2: heterogeneous cores and chiplet sockets.
	CoreClasses        []classJSON `json:"core_classes,omitempty"`
	DiesPerSocket      int         `json:"dies_per_socket,omitempty"`
	FabricBandwidthGBs float64     `json:"fabric_bandwidth_gbs,omitempty"`
	FabricLatencyNs    float64     `json:"fabric_latency_ns,omitempty"`
	LLCMiB             float64     `json:"llc_mib,omitempty"`
}

// classJSON is one core class: its share of each socket plus parameter
// overrides (zero/omitted fields inherit the flat spec fields).
type classJSON struct {
	Name           string  `json:"name"`
	CoresPerSocket int     `json:"cores_per_socket,omitempty"`
	FreqGHz        float64 `json:"freq_ghz,omitempty"`
	FlopsPerCycle  float64 `json:"flops_per_cycle,omitempty"`
	CoreIssueGBs   float64 `json:"core_issue_gbs,omitempty"`
	CacheKiB       float64 `json:"cache_kib,omitempty"`
	L2BandwidthGBs float64 `json:"l2_bandwidth_gbs,omitempty"`
}

// specJSONFrom converts a validated Spec to its serialized form.
func specJSONFrom(s *Spec) specJSON {
	j := specJSON{
		Schema:             SpecSchemaVersion,
		Topology:           s.Topo.Name,
		FreqGHz:            s.FreqHz / 1e9,
		FlopsPerCycle:      s.FlopsPerCycle,
		MCBandwidthGBs:     s.MCBandwidth / 1e9,
		CoreIssueGBs:       s.CoreIssueBW / 1e9,
		CacheKiB:           s.CacheBytes / 1024,
		LineBytes:          s.LineBytes,
		L2BandwidthGBs:     s.L2Bandwidth / 1e9,
		LinkBandwidthGBs:   s.LinkBandwidth / 1e9,
		LocalLatencyNs:     s.LocalLatency * 1e9,
		HopLatencyNs:       s.HopLatency * 1e9,
		ContentionPenalty:  s.ContentionPenalty,
		MLPRandom:          s.MLPRandom,
		PrefetchDepth:      s.PrefetchDepth,
		FabricBandwidthGBs: s.FabricBandwidth / 1e9,
		FabricLatencyNs:    s.FabricLatency * 1e9,
		LLCMiB:             s.LLCBytes / (1024 * 1024),
	}
	if n := s.Topo.NumDies(); n > 1 {
		j.DiesPerSocket = n
	}
	for i, cl := range s.Classes {
		cj := classJSON{
			Name:           cl.Name,
			CoresPerSocket: s.Topo.Classes[i].PerSocket,
			FreqGHz:        cl.FreqHz / 1e9,
			FlopsPerCycle:  cl.FlopsPerCycle,
			CoreIssueGBs:   cl.CoreIssueBW / 1e9,
			CacheKiB:       cl.CacheBytes / 1024,
			L2BandwidthGBs: cl.L2Bandwidth / 1e9,
		}
		j.CoreClasses = append(j.CoreClasses, cj)
	}
	return j
}

// MarshalJSONSpec serializes a spec as canonical schema-2 JSON
// (topology as a spec string when it was parseable; built-in names
// survive as-is).
func MarshalJSONSpec(s *Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(specJSONFrom(s), "", "  ")
}

// decodeSpec parses a spec file (schema 1 or 2), returning both the
// normalized serialized form — the canonical bytes content hashes are
// computed over — and the built Spec. The serialized fields are
// validated by their JSON names before the unit conversions, so a bad
// file is reported in the vocabulary the author wrote it in
// ("mc_bandwidth_gbs", not "MCBandwidth") — and a zero from an omitted
// field is caught even where the generic Validate tolerates it.
func decodeSpec(data []byte) (*specJSON, *Spec, error) {
	var j specJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, nil, fmt.Errorf("machine: parsing spec: %w", err)
	}
	switch j.Schema {
	case 0, 1:
		// Schema 1 (or the pre-"schema" era): flat fields only. A file
		// mixing v2 fields into a v1 declaration fails loudly instead
		// of half-applying.
		if len(j.CoreClasses) > 0 || j.DiesPerSocket != 0 ||
			j.FabricBandwidthGBs != 0 || j.FabricLatencyNs != 0 || j.LLCMiB != 0 {
			return nil, nil, fmt.Errorf(`machine: spec uses schema-2 fields (core_classes, dies_per_socket, fabric_*, llc_mib) but declares "schema": %d`, j.Schema)
		}
		j.Schema = SpecSchemaVersion // auto-upgrade
	case SpecSchemaVersion:
	default:
		return nil, nil, fmt.Errorf("machine: unsupported spec schema %d (want 1 or %d)", j.Schema, SpecSchemaVersion)
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"freq_ghz", j.FreqGHz},
		{"flops_per_cycle", j.FlopsPerCycle},
		{"mc_bandwidth_gbs", j.MCBandwidthGBs},
		{"core_issue_gbs", j.CoreIssueGBs},
		{"cache_kib", j.CacheKiB},
		{"line_bytes", j.LineBytes},
		{"l2_bandwidth_gbs", j.L2BandwidthGBs},
		{"link_bandwidth_gbs", j.LinkBandwidthGBs},
	} {
		if !(f.value > 0) {
			return nil, nil, fmt.Errorf("machine: spec field %q must be positive (got %v)", f.name, f.value)
		}
	}
	// The three tunables are optional in spirit but bounded: report bad
	// values by JSON name like the required fields above, instead of
	// falling through to the generic Validate's Go-field vocabulary.
	if j.ContentionPenalty < 0 {
		return nil, nil, fmt.Errorf("machine: spec field %q must be non-negative (got %v)", "contention_penalty", j.ContentionPenalty)
	}
	if j.MLPRandom < 1 {
		return nil, nil, fmt.Errorf("machine: spec field %q must be at least 1 (got %v)", "mlp_random", j.MLPRandom)
	}
	if j.PrefetchDepth < 0 {
		return nil, nil, fmt.Errorf("machine: spec field %q must be non-negative (got %v)", "prefetch_depth", j.PrefetchDepth)
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"fabric_bandwidth_gbs", j.FabricBandwidthGBs},
		{"fabric_latency_ns", j.FabricLatencyNs},
		{"llc_mib", j.LLCMiB},
	} {
		if f.value < 0 {
			return nil, nil, fmt.Errorf("machine: spec field %q must be non-negative (got %v)", f.name, f.value)
		}
	}
	if j.DiesPerSocket < 0 {
		return nil, nil, fmt.Errorf("machine: spec field %q must be non-negative (got %v)", "dies_per_socket", j.DiesPerSocket)
	}
	for i, cj := range j.CoreClasses {
		if cj.CoresPerSocket < 0 {
			return nil, nil, fmt.Errorf("machine: core_classes[%d] field %q must be non-negative (got %v)", i, "cores_per_socket", cj.CoresPerSocket)
		}
		for _, f := range []struct {
			name  string
			value float64
		}{
			{"freq_ghz", cj.FreqGHz},
			{"flops_per_cycle", cj.FlopsPerCycle},
			{"core_issue_gbs", cj.CoreIssueGBs},
			{"cache_kib", cj.CacheKiB},
			{"l2_bandwidth_gbs", cj.L2BandwidthGBs},
		} {
			if f.value < 0 {
				return nil, nil, fmt.Errorf("machine: core_classes[%d] field %q must be non-negative (got %v)", i, f.name, f.value)
			}
		}
	}

	var topo *topology.System
	if builtin := Lookup(j.Topology); builtin != nil {
		topo = builtin.Topo
	} else {
		t, err := topology.Parse(j.Topology)
		if err != nil {
			return nil, nil, fmt.Errorf("machine: topology %q: %w", j.Topology, err)
		}
		topo = t
	}

	// Layer JSON-declared core classes and dies onto the topology. The
	// topology string may itself carry both ("sock:8P+8E/2"); when both
	// sources speak they must agree.
	if j.DiesPerSocket > 1 && topo.NumDies() > 1 && j.DiesPerSocket != topo.NumDies() {
		return nil, nil, fmt.Errorf("machine: spec field %q is %d but topology %q has %d dies",
			"dies_per_socket", j.DiesPerSocket, j.Topology, topo.NumDies())
	}
	var classes []topology.CoreClass
	if len(j.CoreClasses) > 0 {
		if len(topo.Classes) > 0 {
			if len(j.CoreClasses) != len(topo.Classes) {
				return nil, nil, fmt.Errorf("machine: spec lists %d core classes, topology %q declares %d",
					len(j.CoreClasses), j.Topology, len(topo.Classes))
			}
			for i, cj := range j.CoreClasses {
				tc := topo.Classes[i]
				if cj.Name != tc.Name {
					return nil, nil, fmt.Errorf("machine: core_classes[%d] is %q, topology %q calls it %q",
						i, cj.Name, j.Topology, tc.Name)
				}
				if cj.CoresPerSocket != 0 && cj.CoresPerSocket != tc.PerSocket {
					return nil, nil, fmt.Errorf("machine: core_classes[%d] (%q) has %d cores per socket, topology %q says %d",
						i, cj.Name, cj.CoresPerSocket, j.Topology, tc.PerSocket)
				}
			}
		} else {
			classes = make([]topology.CoreClass, len(j.CoreClasses))
			for i, cj := range j.CoreClasses {
				if cj.CoresPerSocket <= 0 {
					return nil, nil, fmt.Errorf("machine: core_classes[%d] (%q) needs %q on topology %q",
						i, cj.Name, "cores_per_socket", j.Topology)
				}
				classes[i] = topology.CoreClass{Name: cj.Name, PerSocket: cj.CoresPerSocket}
			}
		}
	}
	if classes != nil || (j.DiesPerSocket > 1 && topo.NumDies() == 1) {
		t, err := topo.Reshape(classes, j.DiesPerSocket)
		if err != nil {
			return nil, nil, fmt.Errorf("machine: topology %q: %w", j.Topology, err)
		}
		topo = t
	}

	s := &Spec{
		Topo:              topo,
		FreqHz:            j.FreqGHz * 1e9,
		FlopsPerCycle:     j.FlopsPerCycle,
		MCBandwidth:       j.MCBandwidthGBs * 1e9,
		CoreIssueBW:       j.CoreIssueGBs * 1e9,
		CacheBytes:        j.CacheKiB * 1024,
		LineBytes:         j.LineBytes,
		L2Bandwidth:       j.L2BandwidthGBs * 1e9,
		LinkBandwidth:     j.LinkBandwidthGBs * 1e9,
		LocalLatency:      j.LocalLatencyNs / 1e9,
		HopLatency:        j.HopLatencyNs / 1e9,
		ContentionPenalty: j.ContentionPenalty,
		MLPRandom:         j.MLPRandom,
		PrefetchDepth:     j.PrefetchDepth,
		FabricBandwidth:   j.FabricBandwidthGBs * 1e9,
		FabricLatency:     j.FabricLatencyNs / 1e9,
		LLCBytes:          j.LLCMiB * 1024 * 1024,
	}
	if len(j.CoreClasses) > 0 {
		if len(topo.Classes) == 0 {
			// A single unnamed class normalized into the homogeneous
			// form cannot carry overrides that would then be dropped.
			for _, cj := range j.CoreClasses {
				if cj.FreqGHz != 0 || cj.FlopsPerCycle != 0 || cj.CoreIssueGBs != 0 ||
					cj.CacheKiB != 0 || cj.L2BandwidthGBs != 0 {
					return nil, nil, fmt.Errorf("machine: unnamed single core class cannot carry parameter overrides (set the flat fields)")
				}
			}
		} else {
			for _, cj := range j.CoreClasses {
				s.Classes = append(s.Classes, CoreClassSpec{
					Name:          cj.Name,
					FreqHz:        cj.FreqGHz * 1e9,
					FlopsPerCycle: cj.FlopsPerCycle,
					CoreIssueBW:   cj.CoreIssueGBs * 1e9,
					CacheBytes:    cj.CacheKiB * 1024,
					L2Bandwidth:   cj.L2BandwidthGBs * 1e9,
				})
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}

	// Normalize the serialized form so that re-marshaling it is
	// byte-stable: explicit class counts, dies only when real. The
	// numeric fields keep their decoded float64 values — Go's JSON
	// emission round-trips those exactly, which is what makes content
	// hashes identical across client, coordinator, and worker.
	for i := range j.CoreClasses {
		if len(topo.Classes) > 0 {
			j.CoreClasses[i].CoresPerSocket = topo.Classes[i].PerSocket
		}
	}
	if n := topo.NumDies(); n > 1 {
		j.DiesPerSocket = n
	} else {
		j.DiesPerSocket = 0
	}
	return &j, s, nil
}

// UnmarshalJSONSpec builds a Spec from its serialized form (schema 1 or
// 2). The topology field accepts a registered machine name or a
// topology.Parse spec string (ladder:4x2, xbar:8, sock:8P+8E, ...).
func UnmarshalJSONSpec(data []byte) (*Spec, error) {
	_, s, err := decodeSpec(data)
	return s, err
}
