package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// Call kinds: what one HTTP request of a workload is.
const (
	kSchedule   uint8 = iota // POST /v1/schedule
	kPatch                   // PATCH /v1/schedule/{fp}, first send
	kPatchRetry              // the same PATCH again (idempotent retry)
	kJob                     // GET /v1/jobs/{key}
)

var kindNames = [...]string{"schedule", "patch", "patch_retry", "job"}

// record is one completed HTTP request. Bodies live in the bodyStore file,
// not in memory, so the client holds almost nothing while the window runs.
type record struct {
	kind   uint8
	warm   bool  // sent during set-up: checked, but not counted
	status int32 // 0 when the transport failed
	item   int32 // workload-specific: request index or churn step
	lat    time.Duration
	off    int64 // body offset in the store
	size   int32
}

// bodyStore appends response bodies to a file so they can be checked after
// the timed window without being kept on the heap during it.
type bodyStore struct {
	f   *os.File
	w   *bufio.Writer
	off int64
}

func newBodyStore(path string) (*bodyStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating body store: %w", err)
	}
	return &bodyStore{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *bodyStore) put(b []byte) (int64, error) {
	off := s.off
	if _, err := s.w.Write(b); err != nil {
		return 0, fmt.Errorf("writing body store: %w", err)
	}
	s.off += int64(len(b))
	return off, nil
}

func (s *bodyStore) get(off int64, size int32) ([]byte, error) {
	b := make([]byte, size)
	if _, err := s.f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("reading body store: %w", err)
	}
	return b, nil
}

func (s *bodyStore) flush() error { return s.w.Flush() }

func (s *bodyStore) close() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// client is the single closed-loop client: one goroutine, one keep-alive
// connection, the next request sent only after the previous response's last
// byte has been read.
type client struct {
	base  string
	hc    *http.Client
	resp  bytes.Buffer
	store *bodyStore
	recs  []record
	warm  bool
	tr    *tracer // nil in the untraced run

	// dedup keeps, per key, the first body seen and its store offset; a
	// later body that is byte-identical points at the stored copy. Only
	// hot-repeat uses it: every response to one pool item is the same.
	dedup    map[int][]byte
	dedupOff map[int]int64
}

// newClient returns a client for the server at base (set once it is up).
func newClient(store *bodyStore, capacity int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		store: store,
		recs:  make([]record, 0, capacity),
	}
}

// do sends one request and records it. It returns the response body, valid
// until the next call, and the record's index. dedupKey >= 0 enables
// byte-identical body sharing under that key.
func (c *client) do(kind uint8, method, path string, body []byte, item, dedupKey int) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	status := int32(0)
	c.resp.Reset()
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			status = int32(resp.StatusCode)
		}
	}
	end := time.Now()
	rec := record{kind: kind, warm: c.warm, status: status, item: int32(item), lat: end.Sub(start), off: -1}
	out := c.resp.Bytes()
	if status != 0 {
		rec.size = int32(len(out))
		if dedupKey >= 0 && c.dedup != nil && bytes.Equal(c.dedup[dedupKey], out) {
			rec.off = c.dedupOff[dedupKey]
		} else {
			off, perr := c.store.put(out)
			if perr != nil {
				return nil, 0, perr
			}
			rec.off = off
			if dedupKey >= 0 && c.dedup != nil && c.dedup[dedupKey] == nil {
				c.dedup[dedupKey] = append([]byte(nil), out...)
				c.dedupOff[dedupKey] = off
			}
		}
	}
	c.recs = append(c.recs, rec)
	idx := len(c.recs) - 1
	if c.tr != nil {
		c.tr.http(idx, start, end)
	}
	return out, idx, nil
}

// metricValue is one metric of a /metrics scrape: a counter's value or a
// histogram's count and sum.
type metricValue struct {
	Value float64 `json:"value"`
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
}

type metricsSnapshot map[string]metricValue

func (c *client) scrape() (metricsSnapshot, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	var list []struct {
		Name string `json:"name"`
		metricValue
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := make(metricsSnapshot, len(list))
	for _, m := range list {
		out[m.Name] = m.metricValue
	}
	return out, nil
}

// delta is after − before for a counter (its value) or a histogram (count
// and sum).
type metricDelta struct{ value, count, sum float64 }

func diff(before, after metricsSnapshot, name string) metricDelta {
	a, b := after[name], before[name]
	return metricDelta{a.Value - b.Value, a.Count - b.Count, a.Sum - b.Sum}
}
