package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protocol-buffer encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireBytes)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// testProfile encodes a profile with three functions: an engine function,
// a runtime function inlined into an mpi function at one location, and a
// generic function whose type argument names another package.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "multicore/internal/sim.(*Engine).Run", "runtime.memmove",
		"multicore/internal/mpi.(*Rank).Send", "multicore/internal/mem.f[go.shape.*multicore/internal/sim.Flow]"}
	var p pb
	// Samples: value lists are (count, cpu ns); the leaf is the first id.
	p = p.bytes(fProfileSample, pb(nil).bytes(fSampleLocationID, packed(1, 2)).bytes(fSampleValue, packed(3, 30)))
	p = p.bytes(fProfileSample, pb(nil).bytes(fSampleLocationID, packed(2)).bytes(fSampleValue, packed(1, 10)))
	// Unpacked location ids and values are legal encodings too.
	p = p.bytes(fProfileSample, pb(nil).varint(fSampleLocationID, 3).varint(fSampleLocationID, 1).
		varint(fSampleValue, 2).varint(fSampleValue, 20))
	p = p.bytes(fProfileSample, pb(nil).bytes(fSampleLocationID, packed(1)).bytes(fSampleValue, packed(5, 50)))
	// Location 2 holds memmove inlined into Send: the first line is the leaf.
	p = p.bytes(fProfileLocation, pb(nil).varint(fLocationID, 1).bytes(fLocationLine, pb(nil).varint(fLineFunctionID, 1)))
	p = p.bytes(fProfileLocation, pb(nil).varint(fLocationID, 2).
		bytes(fLocationLine, pb(nil).varint(fLineFunctionID, 2)).
		bytes(fLocationLine, pb(nil).varint(fLineFunctionID, 3)))
	p = p.bytes(fProfileLocation, pb(nil).varint(fLocationID, 3).bytes(fLocationLine, pb(nil).varint(fLineFunctionID, 4)))
	for id, name := range []uint64{1, 2, 3, 4} {
		p = p.bytes(fProfileFunction, pb(nil).varint(fFunctionID, uint64(id+1)).varint(fFunctionName, name))
	}
	for _, s := range strs {
		p = p.bytes(fProfileStringTable, []byte(s))
	}
	return p
}

func TestCPUByPackageAttributesLeafFrames(t *testing.T) {
	raw := testProfile(t)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzipped": gz.Bytes()} {
		got, err := cpuByPackage(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := map[string]int64{
			"multicore/internal/sim": 80, // samples 1 and 4: location 1 leads
			"runtime":                10, // memmove, inlined at location 2
			"multicore/internal/mem": 20, // generic; its type argument is ignored
		}
		if len(got) != len(want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
		for pkg, ns := range want {
			if got[pkg] != ns {
				t.Errorf("%s: %s = %d, want %d (all: %v)", name, pkg, got[pkg], ns, got)
			}
		}
	}
}

func TestCPUByPackageRejectsTruncatedInput(t *testing.T) {
	raw := testProfile(t)
	if _, err := cpuByPackage(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"multicore/internal/sim.(*Engine).Run":                     "multicore/internal/sim",
		"multicore/internal/sim.(*FlowNet).fillAll.func1":          "multicore/internal/sim",
		"runtime.mallocgc":                                         "runtime",
		"main.main":                                                "main",
		"net/http.(*Transport).RoundTrip":                          "net/http",
		"multicore/internal/experiments.runCell[go.shape.float64]": "multicore/internal/experiments",
		"": "unknown",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

var sink float64

// The decoder must read what runtime/pprof writes.
func TestCPUByPackageReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	got, err := cpuByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range got {
		total += ns
	}
	if total > 0 && got["main"] == 0 && got["multicore/perfbench"] == 0 {
		t.Errorf("a busy loop in this package got no CPU time: %v", got)
	}
}
