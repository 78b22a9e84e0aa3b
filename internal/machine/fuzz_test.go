package machine

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestSpecDecodeBoundsSizes: a spec a few hundred bytes long cannot make
// the decoder build an oversized topology, or pass core-class counts
// that wrap around to the topology's core count. Before the bounds,
// "line:512" cost 1.8 s and 2.7 GB of all-pairs routes before the spec
// was rejected for an unrelated field, and the class list below made
// topology.NewHetero index past its core table and panic.
func TestSpecDecodeBoundsSizes(t *testing.T) {
	const fields = `"schema":2,"freq_ghz":2,"flops_per_cycle":2,"mc_bandwidth_gbs":6,"core_issue_gbs":6,` +
		`"cache_kib":1024,"line_bytes":64,"l2_bandwidth_gbs":20,"link_bandwidth_gbs":4,` +
		`"local_latency_ns":80,"hop_latency_ns":40,"mlp_random":4`
	for _, extra := range []string{
		`"topology":"line:512"`, `"topology":"line:2032"`,
		`"topology":"xbar:100000"`, `"topology":"sock:100000000"`,
		`"topology":"sock:1","core_classes":[{"name":"A","cores_per_socket":9223372036854775807},` +
			`{"name":"B","cores_per_socket":9223372036854775807},{"name":"C","cores_per_socket":3}]`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalJSONSpec([]byte("{" + fields + "," + extra + "}"))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; err == nil || n > 1<<20 {
			t.Errorf("%s: err %v after allocating %d bytes, want an error under 1 MB", extra, err, n)
		}
	}
}

// FuzzSpecRoundTrip: any spec the decoder accepts reaches a canonical
// fixed point. Its canonical bytes decode to a spec with the same
// content id and the same canonical bytes, which is what lets a client,
// the coordinator and a worker agree on a shipped machine's store key.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, name := range Names() {
		data, err := MarshalJSONSpec(Lookup(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	hybrid, err := os.ReadFile("../../examples/hybrid8.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hybrid)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalJSONSpec(data)
		if err != nil {
			return
		}
		id, canon, err := SpecID(s)
		if err != nil {
			t.Fatalf("SpecID of an accepted spec: %v\n%s", err, data)
		}
		s2, err := UnmarshalJSONSpec(canon)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		id2, canon2, err := SpecID(s2)
		if err != nil {
			t.Fatalf("SpecID of the canonical spec: %v\n%s", err, canon)
		}
		if id2 != id || !bytes.Equal(canon2, canon) {
			t.Fatalf("no fixed point: id %s then %s\n%s\n%s", id, id2, canon, canon2)
		}
	})
}
