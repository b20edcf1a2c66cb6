package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"equinox"
	"equinox/internal/fleet/store"
)

// firstLease is the ID of the first lease a coordinator grants.
const firstLease = "L00000001"

// completeHarness is a coordinator with a memory store and one unit leased
// under firstLease, behind the protocol handlers.
type completeHarness struct {
	c   *Coordinator
	st  *store.Memory
	mux *http.ServeMux
	key string // the leased unit's content key
}

func newCompleteHarness(tb testing.TB) *completeHarness {
	tb.Helper()
	st := store.NewMemory(16, 0)
	c := NewCoordinator(Config{Store: st, LeaseTTL: time.Minute, SweepInterval: time.Hour})
	tb.Cleanup(c.Close)
	units := testUnits("job", 1)
	if err := c.SubmitJob("job", Interactive, units, JobCallbacks{}); err != nil {
		tb.Fatal(err)
	}
	if grant, ok := c.Lease("w1"); !ok || grant.LeaseID != firstLease {
		tb.Fatalf("lease %+v (ok=%v), want %s", grant, ok, firstLease)
	}
	mux := http.NewServeMux()
	RegisterHandlers(mux, c, nil)
	return &completeHarness{c: c, st: st, mux: mux, key: units[0].Key}
}

// post sends body to POST /v1/fleet/complete and returns the status code.
func (h *completeHarness) post(body string) int {
	rec := httptest.NewRecorder()
	h.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/complete", bytes.NewReader([]byte(body))))
	return rec.Code
}

// completeBody is a complete request for firstLease carrying result ("" =
// no result member).
func completeBody(result string) string {
	if result == "" {
		return `{"leaseId":"` + firstLease + `"}`
	}
	return `{"leaseId":"` + firstLease + `","result":` + result + `}`
}

// badResults are success reports whose result is no evaluation document.
// Each used to be stored under the unit's content key, failing (or, for
// null, silently emptying) every later job that contains the unit.
var badResults = map[string]string{
	"no result":  "",
	"null":       `null`,
	"array":      `[]`,
	"non-object": `"done"`,
	"no runs":    `{"mesh":"4x4"}`,
}

// TestCompleteRejectsBadResult: a success without an evaluation document is
// answered 400 and stores nothing, and the lease stays, so a good document
// on it still lands — compacted, the form every stored result takes.
func TestCompleteRejectsBadResult(t *testing.T) {
	for name, result := range badResults {
		t.Run(name, func(t *testing.T) {
			h := newCompleteHarness(t)
			if code := h.post(completeBody(result)); code != http.StatusBadRequest {
				t.Fatalf("complete with %s: %d, want 400", name, code)
			}
			if got, ok := h.st.Get(h.key); ok {
				t.Fatalf("rejected result reached the store: %q", got)
			}
			if n := h.c.UnitsRunning(); n != 1 {
				t.Fatalf("units running after the rejection = %d, want 1 (the lease stays)", n)
			}

			doc := unitDocJSON("Scheme0", "bench")
			var indented bytes.Buffer
			if err := json.Indent(&indented, doc, "", "  "); err != nil {
				t.Fatal(err)
			}
			if code := h.post(completeBody(indented.String())); code != http.StatusNoContent {
				t.Fatalf("good complete on the same lease: %d, want 204", code)
			}
			if got, _ := h.st.Get(h.key); !bytes.Equal(got, doc) {
				t.Fatalf("stored %q, want the compact document %q", got, doc)
			}
		})
	}
}

// FuzzFleetComplete posts arbitrary bodies to POST /v1/fleet/complete with
// one unit leased. The handler must not panic, must answer 204, 400 or 410
// only, and whatever reaches the store must be an evaluation document
// carrying a run or an error.
func FuzzFleetComplete(f *testing.F) {
	for _, result := range badResults {
		f.Add(completeBody(result))
	}
	f.Add(completeBody(string(unitDocJSON("Scheme0", "bench"))))
	f.Add(`{"leaseId":"` + firstLease + `","error":"boom"}`)
	f.Add(`{"leaseId":"L00000002","result":` + string(unitDocJSON("Scheme0", "bench")) + `}`)
	f.Add(`{"leaseId":""}`)
	f.Add(`not json`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		h := newCompleteHarness(t)
		switch code := h.post(body); code {
		case http.StatusNoContent, http.StatusBadRequest, http.StatusGone:
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
		raw, ok := h.st.Get(h.key)
		if !ok {
			return
		}
		var doc equinox.ExportedEvaluation
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("stored entry %q is not an evaluation document: %v", raw, err)
		}
		if len(doc.Runs) == 0 && len(doc.Errors) == 0 {
			t.Fatalf("stored entry %q carries no runs and no errors", raw)
		}
	})
}

// FuzzFleetLeaseHeartbeat posts arbitrary bodies to POST /v1/fleet/heartbeat
// and then POST /v1/fleet/lease, with one unit leased to w1 and one
// queued. Neither handler may panic or answer other than 200, 204 or 400;
// a lease goes only to a named worker; and a heartbeat neither changes how
// many units are pending or running nor renews a lease its worker does
// not hold.
func FuzzFleetLeaseHeartbeat(f *testing.F) {
	f.Add(`{"worker":"w1","leaseIds":["` + firstLease + `"]}`)
	f.Add(`{"worker":"w2","leaseIds":["` + firstLease + `","L00000002"]}`)
	f.Add(`{"worker":"w2"}`)
	f.Add(`{"worker":""}`)
	f.Add(`{"worker":"w1","extra":1}`)
	f.Add(`not json`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		clk := newFakeClock()
		c := NewCoordinator(Config{LeaseTTL: time.Minute, SweepInterval: time.Hour, Now: clk.now})
		t.Cleanup(c.Close)
		if err := c.SubmitJob("job", Interactive, testUnits("job", 2), JobCallbacks{}); err != nil {
			t.Fatal(err)
		}
		if grant, ok := c.Lease("w1"); !ok || grant.LeaseID != firstLease {
			t.Fatalf("lease %+v (ok=%v), want %s", grant, ok, firstLease)
		}
		mux := http.NewServeMux()
		RegisterHandlers(mux, c, nil)
		post := func(path string) int {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest:
			default:
				t.Fatalf("%s answered %d for body %q", path, rec.Code, body)
			}
			return rec.Code
		}
		expiries := func() map[string]time.Time {
			c.mu.Lock()
			defer c.mu.Unlock()
			m := map[string]time.Time{}
			for id, l := range c.leases {
				m[id] = l.expires
			}
			return m
		}

		units, before := c.UnitsPending()+c.UnitsRunning(), expiries()
		clk.advance(time.Second) // so a renewal moves an expiry
		post("/v1/fleet/heartbeat")
		checkInvariants(t, c)
		if n := c.UnitsPending() + c.UnitsRunning(); n != units {
			t.Fatalf("heartbeat moved pending+running from %d to %d", units, n)
		}
		var req HeartbeatRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req)
		for id, exp := range expiries() {
			c.mu.Lock()
			holder := c.leases[id].worker
			c.mu.Unlock()
			if !exp.Equal(before[id]) && holder != req.Worker {
				t.Fatalf("heartbeat from %q renewed %s, held by %q", req.Worker, id, holder)
			}
		}

		post("/v1/fleet/lease")
		checkInvariants(t, c)
		c.mu.Lock()
		defer c.mu.Unlock()
		for id, l := range c.leases {
			if l.worker == "" {
				t.Fatalf("lease %s granted to an empty worker name", id)
			}
		}
	})
}
