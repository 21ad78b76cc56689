package aws

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"condor/internal/obs"
)

// Client is the SDK the Condor framework and CLI use to talk to the cloud
// endpoint. Transient failures (HTTP 5xx and transport errors) are retried
// with exponential backoff, as the AWS CLI does.
type Client struct {
	base    string
	http    *http.Client
	license string

	// MaxRetries bounds retry attempts for transient failures (default 4).
	MaxRetries int
	// Backoff is the initial retry delay (default 10ms, doubling).
	Backoff time.Duration

	// Request accounting, updated atomically on the retry path so concurrent
	// scheduler goroutines share one client without locking.
	requests  atomic.Int64 // HTTP attempts issued (including retries)
	retries   atomic.Int64 // attempts beyond the first per request
	failures  atomic.Int64 // requests that exhausted all attempts
	backoffNs atomic.Int64 // cumulative jittered sleep before retries
}

// ClientStats is a snapshot of the client's retry accounting.
type ClientStats struct {
	Requests int64 // HTTP attempts issued, retries included
	Retries  int64 // attempts beyond the first
	Failures int64 // requests failed after exhausting retries
	Backoff  time.Duration
}

// Stats snapshots the retry counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests: c.requests.Load(),
		Retries:  c.retries.Load(),
		Failures: c.failures.Load(),
		Backoff:  time.Duration(c.backoffNs.Load()),
	}
}

// RegisterMetrics exposes the aggregate retry accounting of the given
// clients through reg under the condor_aws_* families, read at scrape time.
// Register each family once per registry: pass every client in one call.
func RegisterMetrics(reg *obs.Registry, clients ...*Client) {
	total := func(fn func(ClientStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			var sum float64
			for _, c := range clients {
				sum += fn(c.Stats())
			}
			return []obs.Sample{{Value: sum}}
		}
	}
	reg.Func("condor_aws_requests_total", obs.TypeCounter,
		"HTTP attempts issued to the cloud endpoint, retries included.",
		total(func(s ClientStats) float64 { return float64(s.Requests) }))
	reg.Func("condor_aws_retries_total", obs.TypeCounter,
		"Retry attempts after transient failures.",
		total(func(s ClientStats) float64 { return float64(s.Retries) }))
	reg.Func("condor_aws_request_failures_total", obs.TypeCounter,
		"Requests failed after exhausting all retry attempts.",
		total(func(s ClientStats) float64 { return float64(s.Failures) }))
	reg.Func("condor_aws_backoff_seconds_total", obs.TypeCounter,
		"Cumulative jittered backoff slept before retries.",
		total(func(s ClientStats) float64 { return s.Backoff.Seconds() }))
}

// NewClient creates a client for the endpoint at base (e.g. the URL of an
// httptest server or cmd/awsmock). The licence token authorises AFI
// creation; pass LicenseFromAMI() when running "inside" the FPGA Developer
// AMI, or "" to reproduce the unlicensed-environment failure.
func NewClient(base, license string) *Client {
	return &Client{
		base:       base,
		http:       &http.Client{Timeout: 30 * time.Second},
		license:    license,
		MaxRetries: 4,
		Backoff:    10 * time.Millisecond,
	}
}

// LicenseFromAMI returns the licence token the FPGA Developer AMI provides.
func LicenseFromAMI() string { return DefaultLicense }

// doRaw issues one HTTP request with retries on transient failures. The
// sleep between attempts doubles and is jittered, so a fleet of scheduler
// goroutines retrying the same outage spreads out instead of hammering the
// endpoint in lockstep (the AWS SDK "full jitter" guidance). The body is
// the concatenation of its parts (none for an empty body). It returns the
// reply's body and headers.
func (c *Client) doRaw(method, path, contentType string, body ...[]byte) ([]byte, http.Header, error) {
	var lastErr error
	delay := c.Backoff
	for attempt := 0; attempt <= c.MaxRetries; attempt++ {
		if attempt > 0 {
			sleep := jitter(delay)
			c.retries.Add(1)
			c.backoffNs.Add(int64(sleep))
			time.Sleep(sleep)
			delay *= 2
		}
		c.requests.Add(1)
		req, err := newRequest(method, c.base+path, body)
		if err != nil {
			return nil, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.license != "" {
			req.Header.Set("X-Condor-License", c.license)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = decodeAPIError(resp.StatusCode, data)
			continue // transient: retry
		}
		if resp.StatusCode >= 400 {
			return nil, nil, decodeAPIError(resp.StatusCode, data)
		}
		return data, resp.Header, nil
	}
	c.failures.Add(1)
	return nil, nil, fmt.Errorf("aws: request failed after %d attempts: %w", c.MaxRetries+1, lastErr)
}

// newRequest builds one attempt's request. A body of one part (or none) is
// a bytes.Reader; several parts are sent unjoined as one Content-Length body
// through a net.Buffers, which reading consumes, so every attempt — and
// every GetBody rewind of one — gets a fresh one. Only the multi-part path
// keeps its own copy of the part list: the callers' variadic lists stay
// off the heap.
func newRequest(method, url string, parts [][]byte) (*http.Request, error) {
	if len(parts) <= 1 {
		var b []byte
		if len(parts) == 1 {
			b = parts[0]
		}
		return http.NewRequest(method, url, bytes.NewReader(b))
	}
	own := slices.Clone(parts)
	body := func() (io.ReadCloser, error) {
		bufs := net.Buffers(slices.Clone(own))
		return io.NopCloser(&bufs), nil
	}
	rc, _ := body() // never fails: the signature is GetBody's
	req, err := http.NewRequest(method, url, rc)
	if err != nil {
		return nil, err
	}
	for _, p := range own {
		req.ContentLength += int64(len(p))
	}
	req.GetBody = body
	return req, nil
}

// jitter picks a uniform sleep in [d/2, d]; the global rand source is
// goroutine-safe, so concurrent retry paths decorrelate.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

func decodeAPIError(status int, body []byte) error {
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Code != "" {
		ae.Status = status
		return &ae
	}
	return &apiError{Code: "HTTPError", Status: status, Message: string(body)}
}

// --- S3 operations ---

// CreateBucket creates an S3 bucket.
func (c *Client) CreateBucket(bucket string) error {
	_, _, err := c.doRaw(http.MethodPut, "/s3/"+url.PathEscape(bucket), "")
	return err
}

// PutObject uploads an object whose bytes are the parts in order. The parts
// are sent as one body without being joined, so a file encoded in pieces
// (condorir.WeightSet.Parts) uploads without a contiguous copy.
func (c *Client) PutObject(bucket, key string, parts ...[]byte) error {
	_, _, err := c.doRaw(http.MethodPut, s3Path(bucket, key), "application/octet-stream", parts...)
	return err
}

// GetObject downloads an object.
func (c *Client) GetObject(bucket, key string) ([]byte, error) {
	data, _, err := c.doRaw(http.MethodGet, s3Path(bucket, key), "")
	return data, err
}

// DeleteObject removes an object.
func (c *Client) DeleteObject(bucket, key string) error {
	_, _, err := c.doRaw(http.MethodDelete, s3Path(bucket, key), "")
	return err
}

// ListObjects lists keys with the given prefix.
func (c *Client) ListObjects(bucket, prefix string) ([]string, error) {
	data, _, err := c.doRaw(http.MethodGet, "/s3/"+url.PathEscape(bucket)+"?prefix="+url.QueryEscape(prefix), "")
	if err != nil {
		return nil, err
	}
	var keys []string
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, err
	}
	return keys, nil
}

func s3Path(bucket, key string) string {
	return "/s3/" + url.PathEscape(bucket) + "/" + key
}

// --- API operations ---

func (c *Client) api(req apiRequest) (*apiResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, _, err := c.doRaw(http.MethodPost, "/api", "application/json", body)
	if err != nil {
		return nil, err
	}
	var resp apiResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CreateFpgaImage starts AFI generation from a tarball in S3 and returns the
// pending record with its global AFI id.
func (c *Client) CreateFpgaImage(name, inputBucket, inputKey, logsBucket string) (*AFIRecord, error) {
	resp, err := c.api(apiRequest{
		Action: "CreateFpgaImage", Name: name,
		InputBucket: inputBucket, InputKey: inputKey, LogsBucket: logsBucket,
		Description: "generated by the Condor framework",
	})
	if err != nil {
		return nil, err
	}
	return resp.AFI, nil
}

// DescribeFpgaImages fetches AFI records.
func (c *Client) DescribeFpgaImages(ids ...string) ([]*AFIRecord, error) {
	resp, err := c.api(apiRequest{Action: "DescribeFpgaImages", FpgaImageIDs: ids})
	if err != nil {
		return nil, err
	}
	return resp.AFIs, nil
}

// WaitForAFI polls DescribeFpgaImages until the AFI leaves the pending
// state or the timeout elapses, returning the final record.
func (c *Client) WaitForAFI(afiID string, timeout time.Duration) (*AFIRecord, error) {
	deadline := time.Now().Add(timeout)
	poll := 5 * time.Millisecond
	for {
		recs, err := c.DescribeFpgaImages(afiID)
		if err != nil {
			return nil, err
		}
		if len(recs) == 1 && recs[0].State != AFIPending {
			return recs[0], nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("aws: AFI %s still pending after %v", afiID, timeout)
		}
		time.Sleep(poll)
		if poll < 100*time.Millisecond {
			poll *= 2
		}
	}
}

// RunInstance launches an F1 instance.
func (c *Client) RunInstance(instanceType string) (*Instance, error) {
	resp, err := c.api(apiRequest{Action: "RunInstances", InstanceType: instanceType})
	if err != nil {
		return nil, err
	}
	return resp.Instance, nil
}

// TerminateInstance stops an instance.
func (c *Client) TerminateInstance(id string) error {
	_, err := c.api(apiRequest{Action: "TerminateInstances", InstanceID: id})
	return err
}

// LoadFpgaImage programs an instance slot with an available AFI.
func (c *Client) LoadFpgaImage(instanceID string, slot int, agfi string) error {
	_, err := c.api(apiRequest{Action: "LoadFpgaImage", InstanceID: instanceID, Slot: slot, AgfiID: agfi})
	return err
}

// DescribeFpgaLocalImage reports what a slot is running.
func (c *Client) DescribeFpgaLocalImage(instanceID string, slot int) (*SlotStatus, error) {
	resp, err := c.api(apiRequest{Action: "DescribeFpgaLocalImage", InstanceID: instanceID, Slot: slot})
	if err != nil {
		return nil, err
	}
	return resp.SlotStatus, nil
}

// InferenceJob is one batch for the host program of a programmed slot.
type InferenceJob struct {
	InstanceID string
	Slot       int
	Weights    ObjectRef // the CNDW file the slot's fabric runs with
	Batch      int       // images in Input
	Input      []byte    // the images back to back, as EncodeBatch writes them
}

// ObjectRef addresses an S3 object.
type ObjectRef struct{ Bucket, Key string }

// path addresses the job's slot and weights on the host program's endpoint.
func (j InferenceJob) path() string {
	return inferPath + "?InstanceId=" + url.QueryEscape(j.InstanceID) +
		"&Slot=" + strconv.Itoa(j.Slot) + "&Batch=" + strconv.Itoa(j.Batch) +
		"&WeightsBucket=" + url.QueryEscape(j.Weights.Bucket) + "&WeightsKey=" + url.QueryEscape(j.Weights.Key)
}

// InferenceResult is what the host program returns for one batch.
type InferenceResult struct {
	Output   []float32 // the batch's outputs back to back
	KernelMs float64   // modeled kernel milliseconds
}

// ExecuteInference runs the host program on the instance against the
// programmed slot, one round trip: the request carries the input words and
// the reply the outputs. The slot loads the weights object from S3 unless
// its fabric already holds that very object.
func (c *Client) ExecuteInference(job InferenceJob) (*InferenceResult, error) {
	data, hdr, err := c.doRaw(http.MethodPost, job.path(), "application/octet-stream", job.Input)
	if err != nil {
		return nil, err
	}
	ms, err := strconv.ParseFloat(hdr.Get(kernelMsHeader), 64)
	if err != nil {
		return nil, fmt.Errorf("aws: %s header: %w", kernelMsHeader, err)
	}
	out, err := DecodeBatch(data)
	if err != nil {
		return nil, fmt.Errorf("aws: inference output: %w", err)
	}
	return &InferenceResult{Output: out, KernelMs: ms}, nil
}
