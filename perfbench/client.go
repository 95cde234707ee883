package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
)

// searchRecord keeps a search's answer for the correctness gate: the
// candidates' SPARQL and cost, in order, as a digest.
type searchRecord struct {
	Keywords  []string
	K         int
	N         int
	Digest    string
	Unmatched []string
}

type candRecord struct {
	ID     string  `json:"id"`
	Cost   float64 `json:"cost"`
	SPARQL string  `json:"sparql"`
}

func newSearchRecord(kws []string, k int, cands []candRecord, unmatched []string) *searchRecord {
	h := sha256.New()
	for _, c := range cands {
		fmt.Fprintf(h, "%s\x00%v\x00", c.SPARQL, c.Cost)
	}
	return &searchRecord{Keywords: kws, K: k, N: len(cands),
		Digest: hex.EncodeToString(h.Sum(nil)[:12]), Unmatched: unmatched}
}

// execRecord keeps an execute's answer: the row set as a digest, and the
// rows themselves where a truncated answer may legitimately differ from
// the twin's (see checkRows).
type execRecord struct {
	Keywords  []string
	K         int
	Rank      int
	Limit     int
	SPARQL    string
	Count     int
	Truncated bool
	Digest    string
	Rows      []string
}

type ingestRecord struct {
	Seq     uint64
	Triples []rdf.Triple
}

// termJSON is the /v1 wire form of an RDF term.
type termJSON struct {
	Kind     string `json:"kind"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

func toTermJSON(t rdf.Term) termJSON {
	out := termJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	switch {
	case t.IsLiteral():
		out.Kind = "literal"
	case t.IsBlank():
		out.Kind = "blank"
	default:
		out.Kind = "iri"
	}
	return out
}

func rowKey(row []termJSON) string {
	var b strings.Builder
	for _, t := range row {
		fmt.Fprintf(&b, "%s\x1f%s\x1f%s\x1f%s\x1e", t.Kind, t.Value, t.Datatype, t.Lang)
	}
	return b.String()
}

// digestRows sorts the row keys in place and hashes them: the order-free
// identity of a row set.
func digestRows(keys []string) string {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// reply is one distinct answer the server gave to one request. In the
// measured phases the client only reads an answer's bytes and appends
// them to the run's reply file, and answers to the same request that
// differ in nothing but their timings share one reply. Decoding,
// digesting and checking run after the phases, once per reply, so that
// work neither delays the next op nor takes CPU from the handlers while
// they are measured. The bytes go to a file rather than the heap: kept
// on the heap (hundreds of MB on session_hit) they would raise the
// garbage collector's target over the run, and the server's collections
// would grow rarer than the server alone makes them.
type reply struct {
	o    op  // the request's keywords, k, limit and encoding
	rank int // execute: the rank of the executed candidate; search: -1
	off  int64
	size int // the answer is bytes [off, off+size) of the reply file

	// Filled by decode.
	search         *searchRecord
	exec           *execRecord
	cached, shared bool
	err            string // the answer could not be read, or is inconsistent
}

type replyKey struct {
	req  string // the request
	hash uint64 // the answer without its timings
}

// replyStore keeps the distinct replies of a run.
type replyStore struct {
	mu      sync.Mutex
	seed    maphash.Seed
	replies map[replyKey]*reply
	f       *os.File // the reply file
	end     int64    // its length
	err     error    // the first failed write
}

func newReplyStore(path string) (*replyStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("reply file: %w", err)
	}
	return &replyStore{seed: maphash.MakeSeed(), replies: map[replyKey]*reply{}, f: f}, nil
}

// close removes the reply file.
func (rs *replyStore) close() {
	rs.f.Close()
	os.Remove(rs.f.Name())
}

// put returns the reply for an answer to the request (o, rank, exec),
// keeping body only when no equal answer to it is kept already.
func (rs *replyStore) put(o op, rank int, exec bool, body []byte) *reply {
	var b strings.Builder
	b.WriteString(strconv.Itoa(o.K))
	for _, kw := range o.Keywords {
		b.WriteByte(0)
		b.WriteString(kw)
	}
	if exec {
		fmt.Fprintf(&b, "\x01%d\x01%d\x01%v", rank, o.Limit, o.NDJSON)
	}
	key := replyKey{req: b.String(), hash: identityHash(rs.seed, body)}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r := rs.replies[key]
	if r == nil {
		r = &reply{o: o, rank: rank, off: rs.end, size: len(body)}
		if !exec {
			r.rank = -1
		}
		rs.replies[key] = r
		if _, err := rs.f.Write(body); err != nil && rs.err == nil {
			rs.err = fmt.Errorf("reply file: %w", err)
		}
		rs.end += int64(len(body))
	}
	return r
}

var msField = []byte(`_ms":`)

// identityHash hashes an answer without the values of its "…_ms" fields:
// the timings in which otherwise equal answers differ.
func identityHash(seed maphash.Seed, body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	for {
		i := bytes.Index(body, msField)
		if i < 0 {
			break
		}
		i += len(msField)
		h.Write(body[:i])
		body = body[i:]
		j := 0
		for j < len(body) && strings.IndexByte("0123456789.eE+-", body[j]) >= 0 {
			j++
		}
		body = body[j:]
	}
	h.Write(body)
	return h.Sum64()
}

// decode turns every kept reply into the records the correctness gate
// compares. keepRows keeps execute rows, not only their digest.
func (rs *replyStore) decode(keepRows bool) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.err != nil {
		return rs.err
	}
	all := make([]*reply, 0, len(rs.replies))
	for _, r := range rs.replies {
		all = append(all, r)
	}
	errs := make([]error, runtime.NumCPU())
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(all); i = int(next.Add(1) - 1) {
				r := all[i]
				body := make([]byte, r.size)
				if _, err := rs.f.ReadAt(body, r.off); err != nil {
					errs[w] = fmt.Errorf("reply file: %w", err)
					return
				}
				var err error
				if r.rank < 0 {
					err = r.decodeSearch(body)
				} else {
					err = r.decodeExec(body, keepRows)
				}
				if err != nil {
					r.err = err.Error()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *reply) decodeSearch(body []byte) error {
	var v struct {
		Candidates []candRecord `json:"candidates"`
		Unmatched  []string     `json:"unmatched"`
		Cached     bool         `json:"cached"`
		Shared     bool         `json:"shared"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("search: %v", err)
	}
	r.cached, r.shared = v.Cached, v.Shared
	r.search = newSearchRecord(r.o.Keywords, r.o.K, v.Candidates, v.Unmatched)
	return nil
}

func (r *reply) decodeExec(body []byte, keepRows bool) error {
	rec := &execRecord{Keywords: r.o.Keywords, K: r.o.K, Rank: r.rank, Limit: r.o.Limit}
	r.exec = rec
	var rows [][]termJSON
	var err error
	if r.o.NDJSON {
		err = decodeNDJSON(body, rec, &rows)
	} else {
		var v struct {
			SPARQL    string       `json:"sparql"`
			Rows      [][]termJSON `json:"rows"`
			Count     int          `json:"count"`
			Truncated bool         `json:"truncated"`
		}
		err = json.Unmarshal(body, &v)
		rec.SPARQL, rec.Count, rec.Truncated, rows = v.SPARQL, v.Count, v.Truncated, v.Rows
	}
	if err != nil {
		return fmt.Errorf("execute: %v", err)
	}
	if rec.Count != len(rows) {
		return fmt.Errorf("execute: count %d but %d rows", rec.Count, len(rows))
	}
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = rowKey(row)
	}
	rec.Digest = digestRows(keys)
	if keepRows {
		rec.Rows = keys
	}
	return nil
}

// settle gives each sample the records of its replies. An answer that
// could not be read, or contradicts itself, is a wrong answer.
func settle(ss []sample) {
	for i := range ss {
		s := &ss[i]
		for _, r := range []*reply{s.searchReply, s.execReply} {
			if r == nil {
				continue
			}
			if r.err != "" {
				s.Wrong = true
				s.fail("wrong answer: %s", r.err)
			}
			if r.search != nil {
				s.Search, s.Cached, s.Shared = r.search, r.cached, r.shared
			}
			if r.exec != nil {
				s.Exec = r.exec
			}
		}
	}
}

// httpClient performs ops against the /v1 API over at most conns
// keep-alive connections.
type httpClient struct {
	base    string
	hc      *http.Client
	tr      *tracer // nil: untraced
	replies *replyStore
}

func newHTTPClient(base string, conns int, tr *tracer, replies *replyStore) *httpClient {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpClient{base: base, hc: &http.Client{Transport: t}, tr: tr, replies: replies}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole body.
func (c *httpClient) post(ctx context.Context, path string, body any, ndjson bool, reqID int64, s *sample) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	var sp int32 = -1
	if c.tr != nil {
		sp = c.tr.begin("http"+path, reqID, -1)
		req.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
		req.Header.Set(hdrSpan, strconv.Itoa(int(sp)))
	}
	s.Calls++
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	s.Bytes += len(out)
	return resp.StatusCode, out, err
}

// fail records the first failure of an op.
func (s *sample) fail(format string, args ...any) {
	if s.Err == "" {
		s.Err = fmt.Sprintf(format, args...)
	}
}

func (s *sample) httpFail(what string, code int, body []byte, err error) {
	if err != nil {
		s.fail("%s: %v", what, err)
		return
	}
	var e struct {
		Code string `json:"code"`
	}
	_ = json.Unmarshal(body, &e)
	if code == http.StatusServiceUnavailable && e.Code == "overloaded" {
		s.Rejected = true
	}
	s.fail("%s: HTTP %d %s", what, code, e.Code)
}

// do performs one op over HTTP, filling s. Of an answer it reads only
// what the op needs to go on (an ingest's sequence number, the candidate
// ids a session executes) and keeps the rest for decode.
func (c *httpClient) do(ctx context.Context, o op, reqID int64, start time.Time, s *sample) {
	due := start.Add(s.Due)
	switch o.Kind {
	case opCheckpoint:
		code, body, err := c.post(ctx, "/v1/checkpoint", struct{}{}, false, reqID, s)
		if err != nil || code != http.StatusOK {
			s.httpFail("checkpoint", code, body, err)
		}
	case opIngest:
		ts := make([]map[string]termJSON, len(o.Triples))
		for i, t := range o.Triples {
			ts[i] = map[string]termJSON{"s": toTermJSON(t.S), "p": toTermJSON(t.P), "o": toTermJSON(t.O)}
		}
		code, body, err := c.post(ctx, "/v1/ingest", map[string]any{"triples": ts}, false, reqID, s)
		s.IngestLat = time.Since(due)
		if err != nil || code != http.StatusOK {
			s.httpFail("ingest", code, body, err)
			return
		}
		var r struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			s.fail("ingest: %v", err)
			return
		}
		s.Ingest = &ingestRecord{Seq: r.Seq, Triples: o.Triples}
	default:
		ids, ok := c.search(ctx, o, reqID, due, s)
		if !ok || o.Kind == opSearch || len(ids) == 0 {
			return
		}
		rank := 0
		if o.Kind == opSession {
			rank = o.Rank % len(ids)
		}
		c.execute(ctx, o, rank, ids[rank], reqID, time.Now(), s)
	}
}

// search sends the op's search. It returns the candidate ids when the op
// executes one of them.
func (c *httpClient) search(ctx context.Context, o op, reqID int64, due time.Time, s *sample) ([]string, bool) {
	code, body, err := c.post(ctx, "/v1/search", map[string]any{"keywords": o.Keywords, "k": o.K}, false, reqID, s)
	s.SearchLat = time.Since(due)
	if err != nil || code != http.StatusOK {
		s.httpFail("search", code, body, err)
		return nil, false
	}
	s.searchReply = c.replies.put(o, 0, false, body)
	if o.Kind == opSearch {
		return nil, true
	}
	var r struct {
		Candidates []struct {
			ID string `json:"id"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		s.fail("search: %v", err)
		return nil, false
	}
	ids := make([]string, len(r.Candidates))
	for i, c := range r.Candidates {
		ids[i] = c.ID
	}
	return ids, true
}

func (c *httpClient) execute(ctx context.Context, o op, rank int, id string, reqID int64, due time.Time, s *sample) {
	code, body, err := c.post(ctx, "/v1/execute", map[string]any{"id": id, "limit": o.Limit}, o.NDJSON, reqID, s)
	s.ExecLat = time.Since(due)
	if err != nil || code != http.StatusOK {
		s.httpFail("execute", code, body, err)
		return
	}
	s.execReply = c.replies.put(o, rank, true, body)
}

// decodeNDJSON reads a streamed execute: a header object, one array per
// row, and a trailer object.
func decodeNDJSON(body []byte, rec *execRecord, rows *[][]termJSON) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(lines) < 2 {
		return fmt.Errorf("ndjson: %d lines, want header and trailer", len(lines))
	}
	var head struct {
		SPARQL string `json:"sparql"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil {
		return fmt.Errorf("ndjson header: %w", err)
	}
	var tail struct {
		Count     int  `json:"count"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil {
		return fmt.Errorf("ndjson trailer: %w", err)
	}
	for _, l := range lines[1 : len(lines)-1] {
		var row []termJSON
		if err := json.Unmarshal(l, &row); err != nil {
			return fmt.Errorf("ndjson row: %w", err)
		}
		*rows = append(*rows, row)
	}
	rec.SPARQL, rec.Count, rec.Truncated = head.SPARQL, tail.Count, tail.Truncated
	return nil
}
