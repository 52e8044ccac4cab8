package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// This file is the durable side of the event vocabulary: where Events
// narrates a run to a log stream, a job's journal spools its lifecycle
// to an append-only events.jsonl next to the job's other artifacts, so
// the history survives the process — and, in cluster mode, names every
// node that touched the job. The store owns the disk discipline and the
// server decides what to record; this package owns the record format,
// the closed event vocabulary, and the strict decoder.

// JournalVersion is the format tag every journal line carries. The
// decoder rejects other versions instead of guessing, mirroring the job
// manifest's discipline.
const JournalVersion = "kanon-events/1"

// The closed journal event vocabulary: one constant per lifecycle edge.
// The phase edges bracket a run's compute as phase_start and
// phase_done (the name narrated spans also log their ends under);
// terminal events share their textual form with the job states. The
// server logs each event under the same name.
const (
	EvSubmitted           = "submitted"
	EvClaimed             = "claimed"
	EvLeaseRenewed        = "lease_renewed"
	EvLeaseExpired        = "lease_expired"
	EvLeaseStolen         = "lease_stolen"
	EvLeaseReleased       = "lease_released"
	EvLeaseLost           = "lease_lost"
	EvCheckpointCommitted = "checkpoint_committed"
	EvCheckpointResumed   = "checkpoint_resumed"
	EvPhaseBegin          = "phase_start"
	EvPhaseEnd            = "phase_done"
	EvCancelRequested     = "cancel_requested"
	EvCanceled            = "canceled"
	EvSucceeded           = "succeeded"
	EvFailed              = "failed"
)

// validJournalEvents is the closed set a decoded journal line may carry.
var validJournalEvents = map[string]bool{
	EvSubmitted:           true,
	EvClaimed:             true,
	EvLeaseRenewed:        true,
	EvLeaseExpired:        true,
	EvLeaseStolen:         true,
	EvLeaseReleased:       true,
	EvLeaseLost:           true,
	EvCheckpointCommitted: true,
	EvCheckpointResumed:   true,
	EvPhaseBegin:          true,
	EvPhaseEnd:            true,
	EvCancelRequested:     true,
	EvCanceled:            true,
	EvSucceeded:           true,
	EvFailed:              true,
}

// JournalEvent is one line of a job's events.jsonl: what happened, when,
// and (in cluster mode) on which node under which fencing token.
type JournalEvent struct {
	// V must be JournalVersion.
	V string `json:"v"`
	// TS is the wall-clock time the event was recorded. Journal order is
	// authoritative (appends serialize through the store's per-job lock);
	// timestamps narrate, they do not order.
	TS time.Time `json:"ts"`
	// Event is one of the Ev* constants.
	Event string `json:"event"`
	// Node identifies the recording node; empty outside cluster mode.
	Node string `json:"node,omitempty"`
	// Fence is the lease fencing token the event was recorded under, for
	// the claim/lease events that carry one.
	Fence uint64 `json:"fence,omitempty"`
	// Phase names the phase for phase_start/phase_done events.
	Phase string `json:"phase,omitempty"`
	// Detail is free-form context: a block range, an error, a cost.
	Detail string `json:"detail,omitempty"`
}

// validate rejects events a reader could not act on safely. Node IDs
// follow the store's job-ID rules (alphanumeric-led, ≤ 64 bytes, no
// path or control bytes) — duplicated here because the store imports
// nothing from it and obs imports nothing from the store.
func (e *JournalEvent) validate() error {
	if e.V != JournalVersion {
		return fmt.Errorf("obs: journal event version %q, want %q", e.V, JournalVersion)
	}
	if !validJournalEvents[e.Event] {
		return fmt.Errorf("obs: unknown journal event %q", e.Event)
	}
	if e.TS.IsZero() {
		return fmt.Errorf("obs: journal event %q missing timestamp", e.Event)
	}
	if e.Node != "" {
		if err := validateJournalNode(e.Node); err != nil {
			return err
		}
	}
	return nil
}

// validateJournalNode vets a node identifier found in a journal line:
// same character rules as the store's job and node IDs.
func validateJournalNode(node string) error {
	if len(node) > 64 {
		return fmt.Errorf("obs: journal node id longer than 64 bytes")
	}
	for i := 0; i < len(node); i++ {
		c := node[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '-' || c == '_' || c == '.'):
		default:
			return fmt.Errorf("obs: journal node id %q has unsafe byte %q at %d", node, c, i)
		}
	}
	return nil
}

// EncodeJournalEvent serializes one event (stamping the version) after
// validation, newline-terminated — exactly one journal line.
func EncodeJournalEvent(e JournalEvent) ([]byte, error) {
	e.V = JournalVersion
	if err := e.validate(); err != nil {
		return nil, err
	}
	b, err := json.Marshal(&e)
	if err != nil {
		return nil, fmt.Errorf("obs: encoding journal event: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeJournal parses an events.jsonl spool. Untrusted input — the
// bytes come off disk, possibly written by a node that died mid-append —
// so the decoder is strict about everything except the final line: an
// invalid interior line is an error (the spool is corrupt), while a
// torn final line — unterminated, or terminated but undecodable — is
// skipped, never trusted: a crash can only tear the tail, and every
// complete event before it is still authoritative.
func DecodeJournal(b []byte) ([]JournalEvent, error) {
	var events []JournalEvent
	for ln := 1; len(b) > 0; ln++ {
		line := b
		terminated := false
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b, terminated = b[:i], b[i+1:], true
		} else {
			b = nil
		}
		last := len(b) == 0
		var e JournalEvent
		err := json.Unmarshal(line, &e)
		if err == nil {
			err = e.validate()
		}
		if err != nil {
			if last {
				break // torn tail: skip, never trust
			}
			return nil, fmt.Errorf("obs: journal line %d: %w", ln, err)
		}
		if !terminated {
			break // complete JSON but no newline: the commit byte is missing
		}
		events = append(events, e)
	}
	return events, nil
}
