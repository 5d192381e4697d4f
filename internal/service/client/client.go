// Package client is the production HTTP client for the voltnoised
// characterization service (internal/service). It speaks the v1 JSON
// API: submit asynchronous jobs, poll them, fetch results, run cheap
// studies synchronously, and read the operational surface.
//
// The client is built for an unreliable network. Every call carries a
// per-attempt timeout and retries connection errors, 5xx and 429
// responses with exponential backoff and jitter (honoring
// Retry-After). Retrying is safe by construction: requests are
// content-addressed by their canonical configuration hash, so a
// resubmission deduplicates against the server's cache or in-flight
// singleflight instead of computing twice. Wait survives transient
// disconnects by re-polling until its context expires.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"voltnoise/internal/service"
)

// Defaults for the zero-value knobs.
const (
	// DefaultMaxAttempts is the per-call attempt budget (1 try + 2
	// retries).
	DefaultMaxAttempts = 3
	// DefaultRetryBase is the first backoff delay; each retry doubles
	// it (plus up to 50% jitter).
	DefaultRetryBase = 100 * time.Millisecond
	// DefaultRetryMax caps a single backoff sleep, Retry-After
	// included.
	DefaultRetryMax = 2 * time.Second
	// DefaultRequestTimeout bounds one attempt of a bounded call
	// (everything except the synchronous Run, whose studies legitimately
	// take minutes).
	DefaultRequestTimeout = 30 * time.Second
)

// Client talks to one voltnoised server. The zero value of every knob
// selects a production-sane default; a zero-value Client (plus Base)
// therefore never hangs forever on a dead peer.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient is the transport (default: a shared client with
	// connection pooling; per-call deadlines come from RequestTimeout
	// and the caller's context, not http.Client.Timeout).
	HTTPClient *http.Client
	// MaxAttempts caps tries per call (default DefaultMaxAttempts;
	// negative disables retries).
	MaxAttempts int
	// RetryBase / RetryMax shape the exponential backoff (defaults
	// DefaultRetryBase / DefaultRetryMax).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RequestTimeout bounds each attempt of a bounded call (default
	// DefaultRequestTimeout; negative disables). The caller's context
	// still bounds the call as a whole.
	RequestTimeout time.Duration
	// StreamDropEvery, when positive, makes Watch sever its SSE
	// connection after every N delivered events and resume with
	// Last-Event-ID — a fault-injection hook that exercises the resume
	// path end to end (scripts/stream_smoke.sh). Zero disables.
	StreamDropEvery int
}

// New returns a client for the given base URL.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// defaultHTTPClient pools connections across all Clients that don't
// bring their own transport. No global Timeout: synchronous study
// runs are legitimately long, and bounded calls get per-attempt
// deadlines from RequestTimeout.
var defaultHTTPClient = &http.Client{}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) maxAttempts() int {
	switch {
	case c.MaxAttempts > 0:
		return c.MaxAttempts
	case c.MaxAttempts < 0:
		return 1
	}
	return DefaultMaxAttempts
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return DefaultRetryBase
}

func (c *Client) retryMax() time.Duration {
	if c.RetryMax > 0 {
		return c.RetryMax
	}
	return DefaultRetryMax
}

func (c *Client) requestTimeout() time.Duration {
	switch {
	case c.RequestTimeout > 0:
		return c.RequestTimeout
	case c.RequestTimeout < 0:
		return 0
	}
	return DefaultRequestTimeout
}

// TransientError marks a failure worth retrying (connection error,
// 5xx, 429): the server may well answer the identical request a
// moment later. Calls that exhaust their attempt budget return their
// last error wrapped in one, which Wait uses to keep polling through
// outages.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether err is (or wraps) a TransientError.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// apiError is the server's {"error": "..."} body.
type apiError struct {
	Error string `json:"error"`
}

// attemptResult is one HTTP attempt's outcome.
type attemptResult struct {
	body   []byte
	header http.Header
	status int
	err    error // transport-level failure (no usable response)
}

// do issues the request with retries and returns the response body,
// translating non-2xx statuses into errors carrying the server's
// message. bounded applies the per-attempt RequestTimeout; the
// synchronous study endpoint passes bounded=false so a long
// computation is governed only by the caller's context.
func (c *Client) do(ctx context.Context, method, path string, body any, bounded bool) (respBody []byte, header http.Header, status int, err error) {
	var encoded []byte
	if body != nil {
		encoded, err = json.Marshal(body)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("client: encoding request: %w", err)
		}
	}
	attempts := c.maxAttempts()
	for attempt := 1; ; attempt++ {
		res := c.attempt(ctx, method, path, encoded, bounded)
		retryable := c.classify(ctx, res)
		if res.err == nil && res.status < 400 {
			return res.body, res.header, res.status, nil
		}
		err = attemptError(method, path, res)
		if retryable {
			err = &TransientError{Err: err}
		}
		if !retryable || attempt >= attempts || ctx.Err() != nil {
			return nil, res.header, res.status, err
		}
		if sleepErr := sleepContext(ctx, c.backoff(attempt, res.header)); sleepErr != nil {
			return nil, res.header, res.status, err
		}
	}
}

// attempt performs one HTTP round trip.
func (c *Client) attempt(ctx context.Context, method, path string, encoded []byte, bounded bool) attemptResult {
	if bounded {
		if d := c.requestTimeout(); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	var rd io.Reader
	if encoded != nil {
		rd = bytes.NewReader(encoded)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return attemptResult{err: err}
	}
	if encoded != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return attemptResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		// The response died mid-body: treat like a connection error.
		return attemptResult{header: resp.Header, status: resp.StatusCode, err: err}
	}
	return attemptResult{body: b, header: resp.Header, status: resp.StatusCode}
}

// classify decides whether an attempt's failure is worth retrying.
func (c *Client) classify(ctx context.Context, res attemptResult) bool {
	if res.err != nil {
		// The caller's context ending is final; a per-attempt timeout
		// or connection failure is transient.
		return ctx.Err() == nil
	}
	return res.status == http.StatusTooManyRequests || res.status >= 500
}

// attemptError renders an attempt's failure.
func attemptError(method, path string, res attemptResult) error {
	if res.err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, res.err)
	}
	var ae apiError
	if json.Unmarshal(res.body, &ae) == nil && ae.Error != "" {
		return fmt.Errorf("client: %s %s: %s (HTTP %d)", method, path, ae.Error, res.status)
	}
	return fmt.Errorf("client: %s %s: HTTP %d", method, path, res.status)
}

// backoff computes the sleep before retry #attempt: exponential from
// RetryBase with up to 50% added jitter, raised to a parsable
// Retry-After, capped at RetryMax.
func (c *Client) backoff(attempt int, header http.Header) time.Duration {
	d := c.retryBase() << (attempt - 1)
	if d > c.retryMax() {
		d = c.retryMax()
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if ra := retryAfter(header); ra > d {
		d = ra
	}
	if d > c.retryMax() {
		d = c.retryMax()
	}
	return d
}

// retryAfter parses a Retry-After header's delay-seconds form.
func retryAfter(header http.Header) time.Duration {
	if header == nil {
		return 0
	}
	secs, err := strconv.Atoi(header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepContext sleeps for d unless ctx ends first.
func sleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Submit enqueues an asynchronous job and returns its status. A
// request whose result is already cached comes back immediately with
// Status "done" and Cached set; an identical in-flight request comes
// back Deduped with the existing job's ID. Safe to retry (and
// retried automatically): resubmission of the same canonical hash
// dedupes server-side instead of recomputing.
func (c *Client) Submit(ctx context.Context, req *service.Request) (*service.JobStatus, error) {
	body, _, _, err := c.do(ctx, http.MethodPost, "/v1/jobs", req, true)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("client: decoding job status: %w", err)
	}
	return &st, nil
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*service.JobStatus, error) {
	body, _, _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, true)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("client: decoding job status: %w", err)
	}
	return &st, nil
}

// Result fetches a finished job's result bytes; cached reports
// whether they were served from the result cache at submission.
// A job that has not finished yet returns an error.
func (c *Client) Result(ctx context.Context, id string) (result []byte, cached bool, err error) {
	body, header, status, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, true)
	if err != nil {
		return nil, false, err
	}
	if status == http.StatusAccepted {
		return nil, false, fmt.Errorf("client: job %s not finished", id)
	}
	return body, header.Get("X-Voltnoise-Cache") == "hit", nil
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, _, _, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, true)
	return err
}

// Wait polls the job until it reaches a terminal state (or ctx
// expires), then returns its final status. Transient polling
// failures — the server restarting, a dropped connection, a 5xx —
// do not abort the wait: Wait keeps re-polling until the context
// ends, then reports the last error. Permanent errors (an unknown
// job ID, a malformed response) return immediately.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*service.JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("client: wait %s: %w (last poll error: %v)", id, err, lastErr)
			}
			return nil, err
		}
		st, err := c.Job(ctx, id)
		switch {
		case err == nil:
			if st.Status.Terminal() {
				return st, nil
			}
			lastErr = nil
		case IsTransient(err):
			lastErr = err // outlive the blip; ctx bounds the patience
		default:
			// A poll cut short by the caller's deadline is the clock
			// running out, not a verdict — keep the real last error.
			if ctx.Err() != nil && lastErr != nil {
				return nil, fmt.Errorf("client: wait %s: %w (last poll error: %v)", id, ctx.Err(), lastErr)
			}
			return nil, err
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return nil, fmt.Errorf("client: wait %s: %w (last poll error: %v)", id, ctx.Err(), lastErr)
			}
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Run executes a study synchronously (POST /v1/studies) and returns
// the result bytes; cached reports a cache hit. The per-attempt
// request timeout is deliberately not applied — real studies take
// minutes — so bound Run with the context.
func (c *Client) Run(ctx context.Context, req *service.Request) (result []byte, cached bool, err error) {
	body, header, _, err := c.do(ctx, http.MethodPost, "/v1/studies", req, false)
	if err != nil {
		return nil, false, err
	}
	return body, header.Get("X-Voltnoise-Cache") == "hit", nil
}

// Studies lists the study kinds the server supports.
func (c *Client) Studies(ctx context.Context) ([]service.Study, error) {
	body, _, _, err := c.do(ctx, http.MethodGet, "/v1/studies", nil, true)
	if err != nil {
		return nil, err
	}
	var out struct {
		Studies []service.Study `json:"studies"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding studies: %w", err)
	}
	return out.Studies, nil
}

// Metrics fetches the server's counter snapshot.
func (c *Client) Metrics(ctx context.Context) (*service.MetricsSnapshot, error) {
	body, _, _, err := c.do(ctx, http.MethodGet, "/metrics", nil, true)
	if err != nil {
		return nil, err
	}
	var snap service.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("client: decoding metrics: %w", err)
	}
	return &snap, nil
}

// Healthy checks /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	_, _, _, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	return err
}

// Ready checks /readyz (an error means not ready, e.g. draining).
// Note a degraded server still answers ready — it serves correctly,
// just without durable persistence; the /readyz body has the detail.
func (c *Client) Ready(ctx context.Context) error {
	_, _, _, err := c.do(ctx, http.MethodGet, "/readyz", nil, true)
	return err
}
