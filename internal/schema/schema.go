// Package schema pins the version of every JSON artifact this repository
// emits — Chrome trace exports, persistent result-store entries, and the
// distributed sweep protocol's opening requests (sweep submissions and
// worker registrations, see internal/sweepd). Artifacts embed the version
// as a `schema_version` field; loaders call Check and refuse mismatches
// with a clear error instead of misreading a stale layout.
//
// Bump Version whenever a field is renamed, removed, or changes meaning.
// Purely additive fields do not require a bump.
package schema

import "fmt"

// Version is the current artifact schema version.
const Version = 1

// Check validates a loaded artifact's schema_version. The artifact name
// appears in the error so the user knows which file to regenerate.
func Check(artifact string, got int) error {
	if got != Version {
		return fmt.Errorf("%s: schema_version %d does not match this build's version %d — regenerate the artifact (or use the matching tool version)",
			artifact, got, Version)
	}
	return nil
}
