package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"time"

	"wikisearch"
	"wikisearch/internal/server"
)

// checkSample is how many queries the answer check replays.
const checkSample = 8

var totalMsField = regexp.MustCompile(`"total_ms": [-+0-9.eE]+`)

// checkAnswers replays each query over HTTP and compares the reply byte for
// byte, once stats.total_ms is stripped, with the envelope a direct
// Engine.Search on the same engine yields. It returns one line per
// mismatch or failed request.
func checkAnswers(svc *service, client *http.Client, queries []string) []string {
	var bad []string
	for _, q := range queries {
		resp, err := client.Get(svc.base + searchPath(q))
		if err != nil {
			bad = append(bad, fmt.Sprintf("check %q: %v", q, err))
			continue
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			bad = append(bad, fmt.Sprintf("check %q: status %d, %v", q, resp.StatusCode, err))
			continue
		}
		want, err := directEnvelope(svc.eng, q, resp.Header.Get("X-Cache") == "HIT")
		if err != nil {
			bad = append(bad, fmt.Sprintf("check %q: direct search: %v", q, err))
			continue
		}
		got = totalMsField.ReplaceAll(got, []byte(`"total_ms": 0`))
		want = totalMsField.ReplaceAll(want, []byte(`"total_ms": 0`))
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("check %q: HTTP reply differs from Engine.Search (%d vs %d bytes, X-Cache %s)", q, len(got), len(want), resp.Header.Get("X-Cache")))
		}
	}
	return bad
}

// directEnvelope encodes a direct search the way the server encodes a
// /v1/search reply.
func directEnvelope(eng *wikisearch.Engine, q string, cached bool) ([]byte, error) {
	query := wikisearch.Query{Text: q, TopK: topK, Alpha: 0.1, Lambda: 0.2, Variant: wikisearch.CPUPar}
	res, err := eng.Search(context.Background(), query)
	if err != nil {
		return nil, err
	}
	results := []server.AnswerPayload{}
	for i := range res.Answers {
		a := &res.Answers[i]
		ap := server.AnswerPayload{Central: a.CentralLabel, Score: a.Score, Depth: a.Depth}
		for _, n := range a.Nodes {
			ap.Nodes = append(ap.Nodes, server.NodePayload{ID: n.ID, Label: n.Label, Keywords: n.Keywords, Central: n.IsCentral})
		}
		for _, e := range a.Edges {
			ap.Edges = append(ap.Edges, server.EdgePayload{From: e.From, To: e.To, Rel: e.Rel})
		}
		results = append(results, ap)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(server.V1SearchResponse{
		Results: results,
		Stats: &server.V1SearchStats{
			Query:      q,
			Terms:      res.Terms,
			Depth:      res.Depth,
			Candidates: res.Candidates,
			TotalMs:    float64(res.Total) / float64(time.Millisecond),
			Cached:     cached,
		},
	})
	return buf.Bytes(), err
}

// mutationState is the mutation block of /v1/stats.
type mutationState struct {
	Epoch    uint64                  `json:"epoch"`
	Mutation *server.MutationPayload `json:"mutation"`
}

func fetchMutationState(client *http.Client, base string) (mutationState, error) {
	var env struct {
		Stats *mutationState `json:"stats"`
	}
	body, err := get(client, base+"/v1/stats")
	if err != nil {
		return mutationState{}, err
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Stats == nil || env.Stats.Mutation == nil {
		return mutationState{}, fmt.Errorf("/v1/stats: no mutation block (%v)", err)
	}
	return *env.Stats, nil
}

// checkMutations waits for the background compactor to settle, then checks
// /v1/stats and /metrics against the writes the server acknowledged:
// one publish per batch plus one per compaction, nothing pending, a delta
// below the compaction threshold, and compaction and epoch counts that
// agree with the ops sent.
func checkMutations(client *http.Client, base string, acked, ops, compactAfter int, before metricSet) []string {
	var (
		st         mutationState
		pub, comp  float64
		err        error
		settleTill = time.Now().Add(20 * time.Second)
	)
	for {
		if st, err = fetchMutationState(client, base); err != nil {
			return []string{err.Error()}
		}
		after, err := scrape(client, base)
		if err != nil {
			return []string{err.Error()}
		}
		pub = after.diff(before, "wikisearch_publishes_total")
		comp = after.diff(before, "wikisearch_compactions_total")
		// A compaction bumps /v1/stats before /metrics: it reports to the
		// metrics only once the epochs it replaced have drained.
		settled := st.Mutation.DeltaOps < compactAfter && comp == float64(st.Mutation.Compactions)
		if settled || time.Now().After(settleTill) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	m := st.Mutation
	var bad []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf("mutation check: "+format, args...))
		}
	}
	expect(m.Publishes == int64(acked)+m.Compactions, "publishes %d, want %d acknowledged batches + %d compactions", m.Publishes, acked, m.Compactions)
	expect(m.PendingOps == 0, "%d ops pending after every batch published", m.PendingOps)
	expect(m.DeltaOps < compactAfter, "delta of %d ops never compacted (threshold %d)", m.DeltaOps, compactAfter)
	expect(m.DeltaOps <= ops, "delta of %d ops exceeds the %d ops sent", m.DeltaOps, ops)
	expect((m.Compactions == 0) == (m.DeltaOps == ops), "%d compactions with a delta of %d of %d ops sent", m.Compactions, m.DeltaOps, ops)
	expect(ops < compactAfter || m.Compactions >= 1, "no compaction after %d ops", ops)
	expect(st.Epoch == uint64(1+m.Publishes), "epoch %d after %d publications", st.Epoch, m.Publishes)
	expect(pub == float64(acked), "wikisearch_publishes_total rose by %v, want %d", pub, acked)
	expect(comp == float64(m.Compactions), "wikisearch_compactions_total rose by %v, want %d", comp, m.Compactions)
	return bad
}
