package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/machine"
	"ntcs/internal/ursa"
	"ntcs/sim"
)

// The URSA probe: a world of two URSA shard groups (index, docs and
// search modules on one VAX each) on a backbone network behind a prime
// gateway, queried by two Sun68K client modules on an access network.
// Every traced run builds one and times the URSA layer on it with checked
// queries sent one at a time.
const (
	ursaShards  = 2
	ursaClients = 2
	ursaDocs    = 200 // documents per shard
	ursaQueries = 200 // distinct query texts
	ursaLimit   = 5   // hits requested per query
	ursaWarm    = 4   // warm-up queries per client and shard
)

type ursaWorld struct {
	w       *sim.World
	clients []*core.Module
	search  []addr.UAdd // per shard
	index   []addr.UAdd
	docs    []addr.UAdd
	corpus  [][]doc // per shard, indexed by id-1
	terms   []map[string][]int64
	queries []string
	seed    int64
}

func buildURSA(seed int64) (*ursaWorld, error) {
	w, err := newWorld("backbone", "access")
	if err != nil {
		return nil, err
	}
	s := &ursaWorld{w: w, seed: seed, queries: queries(seed, ursaQueries)}
	if err := s.build(); err != nil {
		w.Close()
		return nil, fmt.Errorf("ursa probe set-up: %w", err)
	}
	return s, nil
}

func (s *ursaWorld) build() error {
	gwHost, err := s.w.AddHost("gw-host", machine.Apollo, "backbone", "access")
	if err != nil {
		return err
	}
	if _, err = s.w.StartGateway(gwHost, "gw"); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	for sh := 0; sh < ursaShards; sh++ {
		h, err := s.w.AddHost(fmt.Sprintf("ursa-%d", sh), machine.VAX, "backbone")
		if err != nil {
			return err
		}
		if _, err := ursa.DeployShard(s.w, h, h, h, sh); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	for c := 0; c < ursaClients; c++ {
		m, err := attach(s.w, fmt.Sprintf("user-client-%d", c), machine.Sun68K, "access")
		if err != nil {
			return err
		}
		if err := ursa.RegisterGeneratedConverters(m); err != nil {
			return err
		}
		s.clients = append(s.clients, m)
	}
	c0 := s.clients[0]
	for sh := 0; sh < ursaShards; sh++ {
		u, err := c0.Locate(ursa.ShardName(ursa.SearchServerName, sh))
		if err != nil {
			return err
		}
		s.search = append(s.search, u)
		for _, base := range []string{ursa.IndexServerName, ursa.DocServerName} {
			u, err := c0.Locate(ursa.ShardName(base, sh))
			if err != nil {
				return err
			}
			if base == ursa.IndexServerName {
				s.index = append(s.index, u)
			} else {
				s.docs = append(s.docs, u)
			}
		}
		if err := s.ingest(sh); err != nil {
			return err
		}
	}
	for _, m := range s.clients {
		for sh := range s.search {
			for i := 0; i < ursaWarm; i++ {
				q := s.queries[(sh+i*7)%len(s.queries)]
				if ok, err := s.query(context.Background(), m, q); err != nil || !ok {
					return fmt.Errorf("warm-up query %q: ok=%v err=%v", q, ok, err)
				}
			}
		}
	}
	return nil
}

// ingest loads the benchmark's corpus for one shard into its index and
// document servers and builds the reference term sets for checking.
func (s *ursaWorld) ingest(sh int) error {
	docs := corpus(s.seed, sh, ursaDocs)
	s.corpus = append(s.corpus, docs)
	s.terms = append(s.terms, termIndex(docs))
	req := ursa.IngestRequest{Docs: make([]ursa.Document, len(docs))}
	for i, d := range docs {
		req.Docs[i] = ursa.Document{ID: d.ID, Title: d.Title, Text: d.Text}
	}
	for _, u := range []addr.UAdd{s.index[sh], s.docs[sh]} {
		var ack ursa.IngestReply
		if err := s.clients[0].Call(u, ursa.MsgIngest, req, &ack); err != nil {
			return fmt.Errorf("ingest shard %d: %w", sh, err)
		}
		if ack.Count != int64(len(docs)) {
			return fmt.Errorf("shard %d ingested %d of %d", sh, ack.Count, len(docs))
		}
	}
	return nil
}

// termIndex maps each term to the ids of the documents containing it: the
// reference the replies are checked against.
func termIndex(docs []doc) map[string][]int64 {
	terms := make(map[string][]int64)
	for _, d := range docs {
		seen := map[string]bool{}
		for _, t := range tokens(d.Title + " " + d.Text) {
			if !seen[t] {
				seen[t] = true
				terms[t] = append(terms[t], d.ID)
			}
		}
	}
	return terms
}

// tokens splits text into lower-case letter-and-digit terms.
func tokens(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
}

// query issues one search and checks the reply against the corpus. It
// returns ok=false for a failed or degraded answer and an error only for
// a wrong one.
func (s *ursaWorld) query(ctx context.Context, m *core.Module, q string) (bool, error) {
	sh := shardOf(q, ursaShards)
	var rep ursa.SearchReply
	if err := m.CallContext(ctx, s.search[sh], ursa.MsgSearch, ursa.SearchRequest{Query: q, Limit: ursaLimit}, &rep); err != nil {
		return false, nil
	}
	return s.checkHits(sh, q, rep.Hits)
}

// checkHits: every hit names a document of the shard that contains a
// query term, under that document's title, and the reply holds as many
// hits as the limit and the matching documents allow. A hit without a
// title is a degraded answer (the search server's fetch failed).
func (s *ursaWorld) checkHits(sh int, q string, hits []ursa.Hit) (bool, error) {
	match := map[int64]bool{}
	for _, t := range tokens(q) {
		for _, id := range s.terms[sh][t] {
			match[id] = true
		}
	}
	if want := min(ursaLimit, len(match)); len(hits) != want {
		return false, fmt.Errorf("%w: query %q on shard %d returned %d hits, want %d", errCorrupt, q, sh, len(hits), want)
	}
	ok := true
	for _, h := range hits {
		if h.DocID < 1 || h.DocID > int64(len(s.corpus[sh])) || !match[h.DocID] {
			return false, fmt.Errorf("%w: query %q on shard %d hit document %d, which does not match", errCorrupt, q, sh, h.DocID)
		}
		switch h.Title {
		case "":
			ok = false
		case s.corpus[sh][h.DocID-1].Title:
		default:
			return false, fmt.Errorf("%w: shard %d document %d titled %q, corpus says %q", errCorrupt, sh, h.DocID, h.Title, s.corpus[sh][h.DocID-1].Title)
		}
	}
	return ok, nil
}

func (s *ursaWorld) close() { s.w.Close() }

// backendRequests asks every URSA server for its request count: index and
// docs summed, and search, over all shards. Each stats call counts itself.
func (s *ursaWorld) backendRequests() (backend, search int64, err error) {
	ask := func(u addr.UAdd) (int64, error) {
		var st ursa.StatsReply
		err := s.clients[0].Call(u, ursa.MsgStats, ursa.StatsRequest{}, &st)
		return st.Requests, err
	}
	for sh := 0; sh < ursaShards; sh++ {
		for _, u := range []addr.UAdd{s.index[sh], s.docs[sh]} {
			n, err := ask(u)
			if err != nil {
				return 0, 0, err
			}
			backend += n
		}
		n, err := ask(s.search[sh])
		if err != nil {
			return 0, 0, err
		}
		search += n
	}
	return backend, search, nil
}

// probeBackends times direct calls from a client to shard 0's index and
// document servers, one at a time.
func (s *ursaWorld) probeBackends() (indexNS, fetchNS float64) {
	const n = 300
	var idx, fetch []uint32
	m := s.clients[0]
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var pl ursa.IndexLookupReply
		if m.Call(s.index[0], ursa.MsgIndexLookup, ursa.IndexLookupRequest{Term: vocabulary[i%len(vocabulary)]}, &pl) == nil {
			idx = append(idx, nsSample(time.Since(t0)))
		}
		t0 = time.Now()
		var dc ursa.Document
		if m.Call(s.docs[0], ursa.MsgFetch, ursa.FetchRequest{DocID: int64(i%ursaDocs) + 1}, &dc) == nil {
			fetch = append(fetch, nsSample(time.Since(t0)))
		}
	}
	return percentile(idx, 0.5), percentile(fetch, 0.5)
}

// probeURSA measures the URSA layer in every traced run: a world of its
// own answers checked queries one at a time from alternating clients,
// the servers' request counts give the backend calls per query, and the
// index and document servers are then timed directly.
func probeURSA(seed int64, m metrics) error {
	const n = 300
	s, err := buildURSA(seed)
	if err != nil {
		return err
	}
	defer s.close()
	backend0, search0, err := s.backendRequests()
	if err != nil {
		return fmt.Errorf("ursa stats: %w", err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.query(context.Background(), s.clients[i%ursaClients], s.queries[i%len(s.queries)]); err != nil {
			return err
		}
	}
	backend1, search1, err := s.backendRequests()
	if err != nil {
		return fmt.Errorf("ursa stats: %w", err)
	}
	// Each server's second stats call counts itself; the first one was
	// already in the first reading.
	m.set("ursa.backend_calls_per_query", "count", float64(backend1-backend0-2*ursaShards)/n)
	m.set("ursa.search_admitted_frac", "frac", float64(search1-search0-ursaShards)/n)
	idx, fetch := s.probeBackends()
	m.set("ursa.index_call_us_p50", "us", idx/1e3)
	m.set("ursa.fetch_call_us_p50", "us", fetch/1e3)
	return nil
}
