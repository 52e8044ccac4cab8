package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func journalFixture() []JournalEvent {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return []JournalEvent{
		{Event: EvSubmitted, TS: t0, Detail: "algo=ball k=3 rows=100"},
		{Event: EvClaimed, TS: t0.Add(time.Second), Node: "node-a", Fence: 1},
		{Event: EvPhaseBegin, TS: t0.Add(time.Second), Node: "node-a", Phase: "anonymize"},
		{Event: EvCheckpointCommitted, TS: t0.Add(2 * time.Second), Node: "node-a", Detail: "block [0,64) cost=7"},
		{Event: EvLeaseExpired, TS: t0.Add(20 * time.Second), Node: "node-a", Fence: 1},
		{Event: EvLeaseStolen, TS: t0.Add(20 * time.Second), Node: "node-b", Fence: 2, Detail: "from node-a"},
		{Event: EvCheckpointResumed, TS: t0.Add(21 * time.Second), Node: "node-b", Detail: "block [0,64)"},
		{Event: EvSucceeded, TS: t0.Add(30 * time.Second), Node: "node-b", Fence: 2, Detail: "cost=11"},
	}
}

// encodeJournal spools the events; the fixture is valid by
// construction, so a failed encode is a test bug worth a panic (it is
// also used as a fuzz seed, outside any *testing.T).
func encodeJournal(events []JournalEvent) []byte {
	var buf bytes.Buffer
	for _, e := range events {
		line, err := EncodeJournalEvent(e)
		if err != nil {
			panic(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func TestJournalRoundTrip(t *testing.T) {
	want := journalFixture()
	got, err := DecodeJournal(encodeJournal(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		w.V = JournalVersion // Encode stamps the version
		if got[i] != w {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], w)
		}
	}
}

func TestJournalDecodeEmpty(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("\n")} {
		events, err := DecodeJournal(b)
		if err != nil {
			t.Fatalf("decode %q: %v", b, err)
		}
		if len(events) != 0 {
			t.Fatalf("decode %q: got %d events, want 0", b, len(events))
		}
	}
}

// A torn final line — truncated mid-record by a crash — is skipped,
// never trusted, and every complete line before it survives.
func TestJournalTornTailSkipped(t *testing.T) {
	full := encodeJournal(journalFixture())
	complete := journalFixture()

	// Chop the final line at every possible byte boundary, including
	// "newline present but JSON invalid" (cut inside the line) and
	// "valid JSON but no terminating newline" (cut the last byte).
	lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	for cut := lastStart; cut < len(full); cut++ {
		events, err := DecodeJournal(full[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(events) != len(complete)-1 {
			t.Fatalf("cut at %d: got %d events, want %d", cut, len(events), len(complete)-1)
		}
	}

	// A terminated-but-garbage tail is also a torn tail, not corruption:
	// the crash may have torn the line and a later append supplied the
	// newline.
	b := append(append([]byte{}, full...), []byte("{\"v\":\"kanon-events/1\",\"event\":\"bogus\n")...)
	events, err := DecodeJournal(b)
	if err != nil {
		t.Fatalf("garbage tail: %v", err)
	}
	if len(events) != len(complete) {
		t.Fatalf("garbage tail: got %d events, want %d", len(events), len(complete))
	}
}

// An invalid interior line is corruption, not a torn tail: the decoder
// must refuse rather than silently dropping history.
func TestJournalInteriorCorruptionErrors(t *testing.T) {
	full := encodeJournal(journalFixture())
	mid := bytes.IndexByte(full, '\n') + 1
	corrupt := append([]byte{}, full[:mid]...)
	corrupt = append(corrupt, []byte("not json\n")...)
	corrupt = append(corrupt, full[mid:]...)
	if _, err := DecodeJournal(corrupt); err == nil {
		t.Fatal("decoder accepted an invalid interior line")
	}
}

func TestJournalEventValidation(t *testing.T) {
	ts := time.Now()
	cases := []struct {
		name string
		e    JournalEvent
	}{
		{"unknown event", JournalEvent{Event: "rebooted", TS: ts}},
		{"missing timestamp", JournalEvent{Event: EvClaimed}},
		{"bad node leading dash", JournalEvent{Event: EvClaimed, TS: ts, Node: "-node"}},
		{"bad node slash", JournalEvent{Event: EvClaimed, TS: ts, Node: "a/b"}},
		{"node too long", JournalEvent{Event: EvClaimed, TS: ts, Node: strings.Repeat("x", 65)}},
	}
	for _, tc := range cases {
		if _, err := EncodeJournalEvent(tc.e); err == nil {
			t.Errorf("%s: encode accepted %+v", tc.name, tc.e)
		}
	}
	// The decoder applies the same validation per line.
	line := `{"v":"kanon-events/0","ts":"2026-08-07T12:00:00Z","event":"claimed"}` + "\n"
	pad, err := EncodeJournalEvent(JournalEvent{Event: EvClaimed, TS: ts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJournal(append([]byte(line), pad...)); err == nil {
		t.Error("decoder accepted a wrong-version interior line")
	}
}

// FuzzJobJournal drives the strict decoder with arbitrary bytes: it
// must never panic, must round-trip whatever it accepts, and must
// preserve a valid prefix when a torn tail follows it.
func FuzzJobJournal(f *testing.F) {
	f.Add([]byte(""))
	f.Add(encodeJournal(journalFixture()))
	f.Add([]byte(`{"v":"kanon-events/1","ts":"2026-08-07T12:00:00Z","event":"claimed","node":"a"}` + "\n"))
	f.Add([]byte("{\"v\":\"kanon-events/1\",\"ts\":\"2026-08-07T12:00:00Z\",\"event\":\"succe"))
	f.Add([]byte("not json\nmore garbage"))
	f.Fuzz(func(t *testing.T, b []byte) {
		events, err := DecodeJournal(b)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same events.
		var buf bytes.Buffer
		for _, e := range events {
			line, err := EncodeJournalEvent(e)
			if err != nil {
				t.Fatalf("accepted event does not re-encode: %+v: %v", e, err)
			}
			buf.Write(line)
		}
		again, err := DecodeJournal(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip lost events: %d → %d", len(events), len(again))
		}
		for i := range events {
			if !again[i].TS.Equal(events[i].TS) {
				t.Fatalf("event %d timestamp drifted: %v → %v", i, events[i].TS, again[i].TS)
			}
			a, b := again[i], events[i]
			a.TS, b.TS = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("event %d mutated in round trip: %+v → %+v", i, events[i], again[i])
			}
		}
		// A torn tail appended to a valid spool must not disturb the
		// prefix.
		torn := append(buf.Bytes(), []byte(`{"v":"kanon-events/1","ts":"2026-`)...)
		prefix, err := DecodeJournal(torn)
		if err != nil {
			t.Fatalf("valid spool + torn tail errored: %v", err)
		}
		if len(prefix) != len(events) {
			t.Fatalf("torn tail disturbed the prefix: %d → %d", len(events), len(prefix))
		}
	})
}
