package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// Wire protocol between clients, the coordinator, and workers. Every
// request that opens a conversation (sweep submission, worker
// registration) carries schema.Version and is rejected on mismatch, so a
// stale binary fails loudly instead of exchanging artifacts it would
// misread.

// API paths served by Coordinator.Handler.
const (
	PathSweep     = "/api/v1/sweep"
	PathRegister  = "/api/v1/worker/register"
	PathPoll      = "/api/v1/worker/poll"
	PathComplete  = "/api/v1/worker/complete"
	PathHeartbeat = "/api/v1/worker/heartbeat"
	PathStatus    = "/api/v1/status"
	PathHealthz   = "/healthz"
)

// Cell result statuses, mirroring the store's entry statuses.
// StatusEstimated is the screening tier's addition: the cell was priced
// by the analytic model (internal/analytic) and not promoted to full
// simulation, so Seconds is an estimate carrying Uncertainty.
const (
	StatusOK         = "ok"
	StatusInfeasible = "infeasible"
	StatusError      = "error"
	StatusEstimated  = "estimated"
)

// SweepRequest is a client's sweep submission. With Screen set the
// coordinator prices every cell through the analytic screening tier
// in-process and leases only the promoted cells (scheme crossovers
// within PromoteMargin, or estimates whose uncertainty exceeds
// UncertaintyBound) to workers; the rest stream back as "estimated".
type SweepRequest struct {
	SchemaVersion int    `json:"schema_version"`
	Grid          Grid   `json:"grid"`
	Faults        string `json:"faults,omitempty"`
	FaultSeed     int64  `json:"fault_seed,omitempty"`
	Retries       int    `json:"retries,omitempty"`
	Screen        bool   `json:"screen,omitempty"`
	// Client identifies the submitter for admission control: the
	// coordinator's per-client in-flight cell quota sums over live sweeps
	// with the same Client string (empty is itself one shared identity).
	Client string `json:"client,omitempty"`
	// Priority (0..MaxPriority, clamped) weights this sweep's cells in
	// the coordinator's weighted-fair dequeue: weight priority+1.
	Priority int `json:"priority,omitempty"`
	// Resume re-attaches to a live sweep by the token carried in the
	// stream's "start" event instead of submitting a new one: the
	// coordinator replays every result finalized so far and streams the
	// rest. All other fields are ignored on resume. An unknown token
	// (coordinator lost the sweep) returns 404.
	Resume string `json:"resume,omitempty"`
	// PromoteMargin is the fractional closeness at which two schemes'
	// estimates count as a potential ranking flip (0 = use the default).
	PromoteMargin float64 `json:"promote_margin,omitempty"`
	// UncertaintyBound promotes any cell whose model uncertainty exceeds
	// it (0 = use the default).
	UncertaintyBound float64 `json:"uncertainty_bound,omitempty"`
	// Specs carries the canonical schema-2 JSON of every custom machine
	// the grid references by content-hash id, keyed by that id. The
	// coordinator registers them (verifying each id matches its content)
	// before validating the grid, and ships the spec to workers inside
	// the lease, so custom machines need no out-of-band distribution.
	Specs map[string]json.RawMessage `json:"specs,omitempty"`
}

// CellResult is one completed cell, streamed to clients and reported by
// workers. Seconds is the simulated makespan (StatusOK only). The
// Worker, Simulated, and Attempt fields are observability — they vary
// run to run and are excluded from the fingerprint.
type CellResult struct {
	Cell        CellSpec `json:"cell"`
	Status      string   `json:"status"`
	Seconds     float64  `json:"seconds,omitempty"`
	Error       string   `json:"error,omitempty"`
	Fingerprint string   `json:"fingerprint"`
	Worker      string   `json:"worker,omitempty"`
	Simulated   bool     `json:"simulated,omitempty"`
	Attempt     int      `json:"attempt,omitempty"`
	// Uncertainty is the analytic model's relative uncertainty band
	// (StatusEstimated only). Promoted marks a simulated cell that the
	// screening tier flagged for full simulation; it is observability,
	// excluded from the fingerprint so promoted results stay
	// byte-identical to unscreened runs of the same cell.
	Uncertainty float64 `json:"uncertainty,omitempty"`
	Promoted    bool    `json:"promoted,omitempty"`
}

// Fingerprint reduces a cell result to an exact signature over its
// deterministic fields: the cell identity, the status, the bit pattern
// of the makespan (hex float, so equal fingerprints mean equal bits, not
// equal roundings), and the error text. Any worker — and the serial
// golden path — must produce the same fingerprint for the same cell.
func Fingerprint(res CellResult) string {
	var buf [256]byte
	return fingerprint(appendKeyTail(appendWorkloadKey(buf[:0], &res.Cell), &res.Cell), &res)
}

// fingerprint completes a fingerprint whose input so far is key, the
// result's cell Key bytes: it appends the remaining fields, each
// NUL-terminated like the key, and hashes the whole input at once.
func fingerprint(key []byte, res *CellResult) string {
	b := append(append(key, 0), res.Status...)
	b = strconv.AppendFloat(append(b, 0), res.Seconds, 'x', -1, 64)
	b = append(append(append(b, 0), res.Error...), 0)
	sum := sha256.Sum256(b)
	var hx [16]byte
	hex.Encode(hx[:], sum[:8])
	return string(hx[:])
}

// StreamEvent is one NDJSON line of a sweep response stream: first a
// "start" event carrying the sweep's resume token and ping interval,
// then "cell" events as results complete (any order — the client
// indexes by cell key), with "ping" keepalives while the stream idles,
// then exactly one "done" event with the sweep summary. An "error"
// event aborts the stream. A client that loses the connection (or stops
// seeing pings) re-submits with Resume set to the token and receives
// the full result replay plus the remainder live.
type StreamEvent struct {
	Type    string      `json:"type"`
	Cell    *CellResult `json:"cell,omitempty"`
	Summary *Summary    `json:"summary,omitempty"`
	Message string      `json:"message,omitempty"`
	// Token and PingMillis ride the "start" event.
	Token      string `json:"token,omitempty"`
	PingMillis int64  `json:"ping_millis,omitempty"`
}

// Summary totals one sweep's outcomes as streamed to one client.
// Simulated counts cells a worker actually ran for this sweep;
// StoreHits counts cells served from the shared store without
// simulating. Divergent counts fingerprint mismatches observed by the
// coordinator (duplicate completions that disagreed) — always zero
// unless determinism is broken.
type Summary struct {
	Cells      int `json:"cells"`
	Simulated  int `json:"simulated"`
	StoreHits  int `json:"store_hits"`
	Infeasible int `json:"infeasible"`
	Errors     int `json:"errors"`
	Divergent  int `json:"divergent"`
	// Screened counts cells the analytic tier settled without
	// simulation; Promoted counts cells it escalated to the simulator.
	Screened int `json:"screened,omitempty"`
	Promoted int `json:"promoted,omitempty"`
}

// RegisterRequest announces a worker to the coordinator. Domain labels
// the failure domain the worker shares fate with (host, rack, zone):
// repeated lease expiries across a domain's workers quarantine the
// whole domain with exponential backoff instead of re-leasing cells
// into it. Empty means the shared "default" domain. Parallelism is how
// many cells the worker runs at once (absent means 1); the coordinator
// sizes batch leases by the slots of all registered workers.
type RegisterRequest struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name,omitempty"`
	Domain        string `json:"domain,omitempty"`
	Parallelism   int    `json:"parallelism,omitempty"`
}

// RegisterResponse assigns the worker its ID and the lease duration it
// must heartbeat within.
type RegisterResponse struct {
	Worker      string `json:"worker"`
	LeaseMillis int64  `json:"lease_millis"`
}

// PollRequest asks for a lease of up to Batch cells (absent or below 1
// means one), long-polling up to WaitMillis.
type PollRequest struct {
	Worker     string `json:"worker"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
	Batch      int    `json:"batch,omitempty"`
}

// Assignment is one leased cell: the spec plus the sweep-level fault
// plan and retry budget it must run under. ID is the coordinator's dedup
// key; completions and heartbeats name cells by it. Attempt counts
// lease assignments of this cell (1-based).
type Assignment struct {
	ID        string   `json:"id"`
	Cell      CellSpec `json:"cell"`
	Faults    string   `json:"faults,omitempty"`
	FaultSeed int64    `json:"fault_seed,omitempty"`
	Retries   int      `json:"retries,omitempty"`
	Attempt   int      `json:"attempt"`
	// Spec is the canonical schema-2 JSON of the cell's machine when
	// Cell.System is a custom content-hash id; the worker registers it
	// (verifying the id) before resolving the cell. Empty for registered
	// machine names.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// PollResponse carries a leased batch: its first cell in Assignment and
// the rest, in lease order, in More. No assignment means "no work yet,
// poll again". RetryAfterMillis, when set, means the worker's failure
// domain is quarantined: the worker must not poll again for that long.
// It is also the reply to a CompleteRequest that sets WaitMillis.
type PollResponse struct {
	Assignment       *Assignment  `json:"assignment,omitempty"`
	More             []Assignment `json:"more,omitempty"`
	RetryAfterMillis int64        `json:"retry_after_millis,omitempty"`
}

// batch returns every assignment the response carries, in lease order.
func (r *PollResponse) batch() []Assignment {
	if r.Assignment == nil {
		return nil
	}
	return append([]Assignment{*r.Assignment}, r.More...)
}

// Report is one finished cell of a CompleteRequest.
type Report struct {
	ID      string     `json:"id"`
	Attempt int        `json:"attempt"`
	Result  CellResult `json:"result"`
}

// CompleteRequest reports finished cells: the first in ID, Attempt and
// Result, the rest of a batch in More. With WaitMillis set the request
// also asks for the worker's next lease of up to Batch cells: the
// coordinator finalizes the results, long-polls as PollRequest does, and
// replies with a PollResponse. Without it the reply is an empty object.
type CompleteRequest struct {
	Worker     string     `json:"worker"`
	ID         string     `json:"id"`
	Attempt    int        `json:"attempt"`
	Result     CellResult `json:"result"`
	More       []Report   `json:"more,omitempty"`
	WaitMillis int64      `json:"wait_millis,omitempty"`
	Batch      int        `json:"batch,omitempty"`
}

// reports returns every result the request carries, in batch order.
func (r *CompleteRequest) reports() []Report {
	return append([]Report{{ID: r.ID, Attempt: r.Attempt, Result: r.Result}}, r.More...)
}

// HeartbeatRequest renews the worker's leases on the named cells.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	IDs    []string `json:"ids"`
}

// HeartbeatResponse lists cells the worker no longer holds (its lease
// expired and was re-assigned); the worker aborts those runs and never
// reports them.
type HeartbeatResponse struct {
	Lost []string `json:"lost,omitempty"`
}

// Status is the coordinator's observable state (GET /api/v1/status).
type Status struct {
	Workers   int `json:"workers"`
	Queued    int `json:"queued"`
	Leased    int `json:"leased"`
	Done      int `json:"done"`
	Divergent int `json:"divergent"`
	// Sweeps counts live (retained) sweeps; Domains reports per-domain
	// quarantine state, sorted by domain name.
	Sweeps  int            `json:"sweeps"`
	Domains []DomainStatus `json:"domains,omitempty"`
}

// DomainStatus is one failure domain's health as surfaced by /status.
type DomainStatus struct {
	Domain  string `json:"domain"`
	Workers int    `json:"workers"`
	// Quarantined means polls from this domain are being turned away;
	// RetryAfterMillis is how much of the backoff remains. Quarantines
	// counts how many times the domain has been quarantined in total.
	Quarantined      bool  `json:"quarantined,omitempty"`
	RetryAfterMillis int64 `json:"retry_after_millis,omitempty"`
	Quarantines      int   `json:"quarantines,omitempty"`
}

// dedupKey joins a cell's identity with the sweep-level parameters that
// change its result, so concurrent sweeps share an execution exactly
// when the simulations would be byte-identical.
func dedupKey(c CellSpec, faults string, seed int64, retries int) string {
	if faults == "" {
		return c.Key()
	}
	// The retry budget changes whether a transiently failing cell
	// eventually succeeds, so it joins the key — but only under a fault
	// plan, which is the only source of transient failures.
	return fmt.Sprintf("%s|faults=%s|seed=%d|retries=%d", c.Key(), faults, seed, retries)
}
