package machine

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// The machine registry makes user-defined systems first-class: built-in
// and modern-pack machines register a builder under a name, and custom
// specs loaded from JSON register under a canonical content-hash id, so
// every consumer (CLIs, sweep grids, the analytic estimator, the sweep
// coordinator and its workers) resolves machines through one API.
var (
	regMu    sync.RWMutex
	builders = map[string]func() *Spec{} // lowercase name -> constructor
	customs  = map[string]*customSpec{}  // content-hash id -> loaded spec
)

type customSpec struct {
	spec *Spec
	raw  []byte // canonical schema-v2 JSON (the bytes that were hashed)
}

// Register adds a named machine constructor. Names are matched
// case-insensitively; registering a name twice panics — machine packs
// are wired up in init functions and a collision is a programming error.
func Register(name string, build func() *Spec) {
	key := strings.ToLower(name)
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := builders[key]; dup {
		panic(fmt.Sprintf("machine: system %q registered twice", name))
	}
	builders[key] = build
}

// Names returns the sorted registered system names (content-hash ids of
// loaded custom specs are resolvable but not listed — they are derived,
// not named).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a registered name (case-insensitive) or a custom-spec
// content-hash id to a spec, returning nil when unknown. Builder
// machines are constructed fresh on every call; custom specs return a
// shallow copy, so callers may adjust top-level fields either way.
func Lookup(name string) *Spec {
	regMu.RLock()
	build := builders[strings.ToLower(name)]
	cs := customs[name]
	regMu.RUnlock()
	if build != nil {
		return build()
	}
	if cs != nil {
		c := *cs.spec
		return &c
	}
	return nil
}

// Resolve is Lookup with error reporting and @FILE support: "@path"
// loads, validates, and registers the spec file at path (see
// RegisterSpecFile), and unknown names list what is registered.
func Resolve(name string) (*Spec, error) {
	if path, ok := strings.CutPrefix(name, "@"); ok {
		_, s, err := RegisterSpecFile(path)
		return s, err
	}
	if s := Lookup(name); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("machine: unknown system %q (registered: %s; or @FILE for a spec file)",
		name, strings.Join(Names(), ", "))
}

// canonicalID derives a custom spec's content-addressed identity from
// its normalized serialized form: a sanitized lowercase topology name
// joined by "@" to the first 12 hex digits of the SHA-256 of the
// canonical schema-2 JSON. Hashing the normalized *JSON* values — not a
// re-marshal of the converted Spec — is what keeps the id bitwise
// stable across client, coordinator, and worker: Go's float64-to-text
// emission round-trips exactly, whereas unit conversions (GHz <-> Hz)
// need not be fixpoints.
func canonicalID(j *specJSON, s *Spec) (string, []byte, error) {
	canon, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(canon)
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9',
			r == '+', r == '.', r == ':', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return '-' // keep ids path- and shell-safe ("line:2x32/4" has a '/')
	}, s.Topo.Name)
	return fmt.Sprintf("%s@%x", name, sum[:6]), canon, nil
}

// SpecID returns the canonical content-addressed identity of a spec and
// its canonical schema-2 JSON. Two files describing the same machine
// get the same id regardless of field order, formatting, or schema
// version — which is what keys custom machines in the result store and
// dedups them across sweep clients.
func SpecID(s *Spec) (string, []byte, error) {
	data, err := MarshalJSONSpec(s)
	if err != nil {
		return "", nil, err
	}
	j, s2, err := decodeSpec(data)
	if err != nil {
		return "", nil, err
	}
	return canonicalID(j, s2)
}

// RegisterSpec validates s, computes its content-hash id, and registers
// it so the id resolves process-wide (Lookup, grid validation, the
// analytic estimator, core.Job). Re-registering the same content is
// idempotent.
func RegisterSpec(s *Spec) (string, error) {
	data, err := MarshalJSONSpec(s)
	if err != nil {
		return "", err
	}
	id, _, err := RegisterSpecJSON(data)
	return id, err
}

// SpecJSONID returns the content-hash id RegisterSpecJSON would register
// data under, registering nothing.
func SpecJSONID(data []byte) (string, error) {
	j, s, err := decodeSpec(data)
	if err != nil {
		return "", err
	}
	id, _, err := canonicalID(j, s)
	return id, err
}

// RegisterSpecJSON parses a spec file's bytes (schema 1 or 2) and
// registers the machine, returning its content-hash id and the spec.
// The registered spec is the decoded canonical form, so a machine
// behaves identically whether it was registered from a hand-written
// file or shipped to a worker as canonical bytes.
func RegisterSpecJSON(data []byte) (string, *Spec, error) {
	j, s, err := decodeSpec(data)
	if err != nil {
		return "", nil, err
	}
	id, canon, err := canonicalID(j, s)
	if err != nil {
		return "", nil, err
	}
	regMu.Lock()
	customs[id] = &customSpec{spec: s, raw: canon}
	regMu.Unlock()
	return id, s, nil
}

// RegisterSpecFile loads and registers a machine spec file.
func RegisterSpecFile(path string) (string, *Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	return RegisterSpecJSON(data)
}

// CustomSpecJSON returns the canonical schema-v2 JSON of a registered
// custom spec id — the payload the sweep coordinator ships to workers
// inside the lease — and whether the id is a registered custom machine.
func CustomSpecJSON(id string) ([]byte, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	cs, ok := customs[id]
	if !ok {
		return nil, false
	}
	return cs.raw, true
}

func init() {
	Register("tiger", Tiger)
	Register("dmz", DMZ)
	Register("longs", Longs)
}
