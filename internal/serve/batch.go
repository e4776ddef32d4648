package serve

// Batch assessment endpoint: POST /v1/assess/batch accepts a changelog
// against one shared synthetic world. It runs the same job path as a
// single submission (execute.go) — the engine's batch path,
// litmus.Pipeline.AssessBatch, which amortizes control selection, panel
// assembly and before-window factorizations across entries.
//
// Cache interaction: every entry is canonicalized exactly like a single
// POST /v1/assess submission — same normalization, same digest — so a
// batch entry hits results cached by earlier singles (or earlier
// batches), and the results a batch computes are cached under the
// per-entry digests for future singles to hit. A batch of 1000 entries
// of which 400 are cached computes only the 600 misses. Entry order
// never changes per-entry digests, and duplicate entries within a batch
// dedup onto one computation.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/serve/journal"
)

// maxBatchEntries bounds one batch submission.
const maxBatchEntries = 1000

// BatchAssessRequest is a changelog submission: the shared world and
// assessment parameters of AssessRequest, with a list of change records
// in place of the single change.
type BatchAssessRequest struct {
	Topology   *TopologySpec  `json:"topology,omitempty"`
	Generator  *GeneratorSpec `json:"generator,omitempty"`
	Index      IndexSpec      `json:"index"`
	Changes    []ChangeSpec   `json:"changes"`
	KPIs       []string       `json:"kpis"`
	WindowDays int            `json:"windowDays"`
	Assessor   *AssessorSpec  `json:"assessor,omitempty"`
	Controls   *ControlsSpec  `json:"controls,omitempty"`
}

// BatchEntrySubmit is one entry's submit-time status inside a
// BatchSubmitResponse.
type BatchEntrySubmit struct {
	// ID is the entry's canonical digest — identical to the job id the
	// same change would get from POST /v1/assess. Empty for invalid
	// entries.
	ID string `json:"id,omitempty"`
	// Cached reports that the entry's result was already available at
	// submit time and will not be recomputed.
	Cached bool `json:"cached,omitempty"`
	// Error is the entry's validation error; the batch itself still
	// submits.
	Error string `json:"error,omitempty"`
}

// BatchSubmitResponse is the POST /v1/assess/batch response body.
type BatchSubmitResponse struct {
	// ID is the batch job identifier.
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cached reports a batch-level dedup: an identical batch is already
	// queued, running or done.
	Cached bool `json:"cached,omitempty"`
	// Entries mirrors the submitted changelog 1:1.
	Entries []BatchEntrySubmit `json:"entries"`
	// Unique is the number of distinct valid entries after dedup;
	// CachedEntries of those were answered from the result cache, so
	// Unique - CachedEntries assessments will actually run.
	Unique        int `json:"unique"`
	CachedEntries int `json:"cachedEntries"`
}

// BatchEntryResult is one entry of a batch result document.
type BatchEntryResult struct {
	// ID is the entry's canonical digest (empty for invalid entries).
	ID       string `json:"id,omitempty"`
	ChangeID string `json:"changeId,omitempty"`
	// Cached reports the result was served from the cache, not computed
	// by this batch.
	Cached   bool `json:"cached,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// Error is the entry's failure: validation at submit time, topology
	// fit, or an unassessable change. The sibling entries are unaffected.
	Error string `json:"error,omitempty"`
	// Assessment is the entry's canonical assessment document — the
	// exact bytes GET /v1/jobs/{entry-id}/result would serve.
	Assessment json.RawMessage `json:"assessment,omitempty"`
}

// BatchResultDoc is the result document of a batch job: one entry per
// submitted change, in submission order.
type BatchResultDoc struct {
	Entries []BatchEntryResult `json:"entries"`
}

// batchDocEntry is one submitted entry's compile-time identity.
type batchDocEntry struct {
	digest     string
	changeID   string
	compileErr string
}

// compiledEntry is one distinct valid changelog entry: its digest and
// compiled request.
type compiledEntry struct {
	digest string
	req    *compiledRequest
}

// compileBatch validates a batch request. Shared-field errors (index,
// topology, KPIs, window, assessor, controls) fail the whole request;
// per-entry change errors are recorded on the entry and never fail the
// batch.
func compileBatch(req *BatchAssessRequest) (*submission, error) {
	if len(req.Changes) == 0 {
		return nil, fmt.Errorf("changes is required")
	}
	if len(req.Changes) > maxBatchEntries {
		return nil, fmt.Errorf("changes has %d entries, max %d", len(req.Changes), maxBatchEntries)
	}
	single := AssessRequest{
		Topology:   req.Topology,
		Generator:  req.Generator,
		Index:      req.Index,
		KPIs:       req.KPIs,
		WindowDays: req.WindowDays,
		Assessor:   req.Assessor,
		Controls:   req.Controls,
	}
	// Probe compile with a syntactically valid placeholder change: any
	// error it surfaces is a shared-field error and fails the request.
	probe := single
	probe.Change = ChangeSpec{ID: "probe", Elements: []string{"probe"}, At: "2000-01-01T00:00:00Z"}
	if _, err := compile(&probe); err != nil {
		return nil, err
	}
	sub := &submission{}
	seen := map[string]bool{}
	for _, ch := range req.Changes {
		entryReq := single
		entryReq.Change = ch
		entry := batchDocEntry{changeID: ch.ID}
		c, err := compile(&entryReq)
		if err != nil {
			entry.compileErr = err.Error()
		} else {
			entry.digest = c.hash()
			if !seen[entry.digest] {
				seen[entry.digest] = true
				sub.unique = append(sub.unique, compiledEntry{digest: entry.digest, req: c})
			}
		}
		sub.entries = append(sub.entries, entry)
	}
	sub.id = batchID(sub.entries)
	// The journal payload is the request document itself: recompiling it
	// on replay reproduces the batch id and the per-entry digests.
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err // plain data; cannot fail
	}
	sub.record = journal.Record{Kind: journal.KindBatchSubmit, Digest: sub.id, Payload: payload}
	return sub, nil
}

// batchID returns the batch job id: a digest over the ordered per-entry
// identities. Per-entry digests are order-independent (each entry
// canonicalizes alone); the batch id covers order so a batch job's
// result document always matches its submission's entry order.
func batchID(entries []batchDocEntry) string {
	h := sha256.New()
	for _, e := range entries {
		if e.compileErr != "" {
			h.Write([]byte("!" + e.compileErr))
		} else {
			h.Write([]byte(e.digest))
		}
		h.Write([]byte{'\n'})
	}
	return "b" + hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchAssessRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	sub, err := compileBatch(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	s.submit(w, r, sub, func(status string, cached bool, resolved map[string]cachedResult) any {
		// A done batch job answers every valid entry from its document.
		allCached := status == stateDone
		resp := BatchSubmitResponse{ID: sub.id, Status: status, Cached: cached, Unique: len(sub.unique), CachedEntries: len(resolved)}
		if allCached {
			resp.CachedEntries = resp.Unique
		}
		resp.Entries = make([]BatchEntrySubmit, 0, len(sub.entries))
		for _, e := range sub.entries {
			_, ok := resolved[e.digest]
			resp.Entries = append(resp.Entries, BatchEntrySubmit{ID: e.digest, Error: e.compileErr, Cached: e.digest != "" && (ok || allCached)})
		}
		return resp
	})
}
