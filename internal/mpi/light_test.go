package mpi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/sim"
)

// lightTraffic is a mixed-protocol workload touching every helper path:
// eager and rendezvous point-to-point (below and above MPICH2's 128KB
// switch), nonblocking overlap through Isend/Irecv, Sendrecv's paired
// helpers, and a collective built on p2p underneath.
func lightTraffic(r *Rank) {
	n := r.Size()
	right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
	for i := 0; i < 3; i++ {
		r.Sendrecv(right, 4096, left) // eager
	}
	if r.ID() == 0 {
		r.Send(1, 512*1024) // rendezvous
	} else if r.ID() == 1 {
		r.Recv(0)
	}
	req := r.Irecv(left)
	q := r.Isend(right, 64*1024)
	r.Compute(1e6, 0.9)
	r.WaitAll(req, q)
	r.Allreduce(8192)
	r.Report("t", r.Now())
}

// runLightTraffic executes the mixed workload on 8 Longs ranks per node.
// With traced set it records a Chrome trace (which keeps every helper
// clone fresh) and returns its bytes; otherwise helper clones recycle.
func runLightTraffic(t *testing.T, nodes int, traced bool) (*Result, []byte) {
	t.Helper()
	spec := machine.Longs()
	bindings, err := affinity.Layout(affinity.Default, spec.Topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, Impl: MPICH2(), Bindings: bindings}
	if traced {
		cfg.Trace, cfg.Observe = &sim.Trace{}, true
	}
	if nodes > 1 {
		cfg.Nodes = nodes
		cfg.Net = RapidArray()
	}
	res, err := RunContext(context.Background(), cfg, lightTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if !traced {
		return res, nil
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// helperGolden is one case of testdata/helper_golden.json: what
// lightTraffic produced when the goroutine-backed and continuation-backed
// helper processes were last shown byte-identical. JSON floats round-trip
// exactly, so Values and Breakdown compare bit for bit after decoding.
type helperGolden struct {
	TraceSHA256 string               `json:"trace_sha256"`
	TimeBits    string               `json:"time_bits"`
	Messages    int                  `json:"messages"`
	Bytes       float64              `json:"bytes"`
	Values      map[string][]float64 `json:"values"`
	Breakdown   []TimeBreakdown      `json:"breakdown"`
}

const helperGoldenPath = "testdata/helper_golden.json"

var updateHelperGolden = flag.Bool("update-helper-golden", false,
	"rewrite testdata/helper_golden.json from the current helpers")

func helperGoldenOf(res *Result, trace []byte) helperGolden {
	sum := sha256.Sum256(trace)
	return helperGolden{
		TraceSHA256: hex.EncodeToString(sum[:]),
		TimeBits:    fmt.Sprintf("%#016x", math.Float64bits(res.Time)),
		Messages:    res.Messages,
		Bytes:       res.Bytes,
		Values:      res.Values,
		Breakdown:   res.Breakdown,
	}
}

// TestLightHelperEquivalence: the Isend/Irecv helper processes must
// reproduce the committed golden exactly — same makespan bits, message and
// byte counts, per-rank metrics and breakdowns, and a byte-identical trace
// — across intra-node and inter-node traffic. The golden was recorded when
// the helpers still had two backings (goroutine and continuation) that
// matched each other byte for byte; an untraced run, where helper clones
// recycle, must match it too.
func TestLightHelperEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
	}{
		{"intra-node", 1},
		{"cluster", 2},
	}
	got := map[string]helperGolden{}
	for _, tc := range cases {
		res, trace := runLightTraffic(t, tc.nodes, true)
		got[tc.name] = helperGoldenOf(res, trace)
	}
	if *updateHelperGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(helperGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", helperGoldenPath)
		return
	}
	data, err := os.ReadFile(helperGoldenPath)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var want map[string]helperGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no golden case %q", tc.name)
			}
			g := got[tc.name]
			if g.TraceSHA256 != w.TraceSHA256 {
				t.Errorf("trace sha256 %s, golden %s", g.TraceSHA256, w.TraceSHA256)
			}
			untraced, _ := runLightTraffic(t, tc.nodes, false)
			for _, run := range []struct {
				name string
				g    helperGolden
			}{{"traced", g}, {"untraced", helperGoldenOf(untraced, nil)}} {
				g := run.g
				if g.TimeBits != w.TimeBits {
					t.Errorf("%s: makespan bits %s, golden %s", run.name, g.TimeBits, w.TimeBits)
				}
				if g.Messages != w.Messages || g.Bytes != w.Bytes {
					t.Errorf("%s: traffic %d msgs/%.0f B, golden %d msgs/%.0f B",
						run.name, g.Messages, g.Bytes, w.Messages, w.Bytes)
				}
				if !reflect.DeepEqual(g.Values, w.Values) {
					t.Errorf("%s: per-rank metrics differ:\n got: %v\n golden: %v", run.name, g.Values, w.Values)
				}
				if !reflect.DeepEqual(g.Breakdown, w.Breakdown) {
					t.Errorf("%s: time breakdowns differ:\n got: %+v\n golden: %+v", run.name, g.Breakdown, w.Breakdown)
				}
			}
		})
	}
}
