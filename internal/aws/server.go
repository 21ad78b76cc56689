package aws

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"condor/internal/tensor"
)

// DefaultLicense is the Xilinx tool licence token the FPGA Developer AMI
// provides. AFI creation requires it; running Condor outside the Developer
// AMI (no token) reproduces the paper's accessibility constraint.
const DefaultLicense = "fpga-developer-ami/1.5.0"

// Request body caps. A PUT is read into one buffer sized from its declared
// length, so maxObjectBytes bounds what a hostile Content-Length can reserve
// (64 MiB is ≈ 37 LeNet weight files); no /api request nears a kilobyte.
const (
	maxObjectBytes  = 64 << 20
	maxAPIBodyBytes = 64 << 10
)

// Options configures the simulated cloud.
type Options struct {
	// AFIGenerationDelay is how long AFIs stay pending (default 30ms; the
	// real pipeline takes ~an hour).
	AFIGenerationDelay time.Duration
	// Licenses are the accepted licence tokens (default: DefaultLicense).
	Licenses []string
	// TransientErrorRate makes that fraction of requests fail with a 503
	// before reaching any service, modelling the sporadic throttling and
	// internal errors of the real cloud (0 disables). Clients are expected
	// to absorb these through their retry policy.
	TransientErrorRate float64
	// TransientErrorSeed seeds the fault-injection RNG so flaky-cloud tests
	// are reproducible (0 uses a fixed default seed).
	TransientErrorSeed int64
}

// Server is the in-process AWS endpoint: an S3-like store under /s3/, the
// EC2/AFI JSON API under /api, and under /infer the host program of an F1
// instance, which runs one batch per request.
type Server struct {
	store *objectStore
	afi   *afiService
	ec2   *ec2Service

	licenses map[string]bool

	mu       sync.Mutex
	failN    int     // fault injection: fail the next N requests with 503
	failRate float64 // fault injection: fail this fraction of requests
	failRNG  *rand.Rand
}

// Quiesce blocks until every in-flight AFI generation worker has finished.
// Call it before discarding a server so background workers are not left
// mutating records after the owner moved on; tests use it to join the
// asynchronous pipeline deterministically.
func (s *Server) Quiesce() {
	s.afi.workers.Wait()
}

// Close shuts the endpoint's simulated hardware down: it quiesces the AFI
// workers and terminates every instance still running, which closes the
// devices of its slots. Stop the HTTP listener in front of the server first
// so no request races it. Close is idempotent.
func (s *Server) Close() {
	s.Quiesce()
	s.ec2.terminateAll()
}

// NewServer builds a cloud endpoint.
func NewServer(opts Options) *Server {
	if opts.AFIGenerationDelay == 0 {
		opts.AFIGenerationDelay = 30 * time.Millisecond
	}
	if len(opts.Licenses) == 0 {
		opts.Licenses = []string{DefaultLicense}
	}
	store := newObjectStore()
	afi := newAFIService(store, opts.AFIGenerationDelay)
	seed := opts.TransientErrorSeed
	if seed == 0 {
		seed = 1
	}
	s := &Server{
		store:    store,
		afi:      afi,
		ec2:      newEC2Service(afi, store),
		licenses: make(map[string]bool),
		failRate: opts.TransientErrorRate,
		failRNG:  rand.New(rand.NewSource(seed)),
	}
	for _, l := range opts.Licenses {
		s.licenses[l] = true
	}
	return s
}

// FailNextN makes the next n requests fail with 503, for retry testing.
func (s *Server) FailNextN(n int) {
	s.mu.Lock()
	s.failN = n
	s.mu.Unlock()
}

// SetTransientErrorRate changes the injected transient-failure fraction at
// runtime (0 disables).
func (s *Server) SetTransientErrorRate(rate float64) {
	s.mu.Lock()
	s.failRate = rate
	s.mu.Unlock()
}

func (s *Server) injectFault(w http.ResponseWriter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	fail := false
	switch {
	case s.failN > 0:
		s.failN--
		fail = true
	case s.failRate > 0:
		fail = s.failRNG.Float64() < s.failRate
	}
	if fail {
		http.Error(w, `{"Code":"ServiceUnavailable","Message":"injected fault"}`, http.StatusServiceUnavailable)
	}
	return fail
}

// ServeHTTP routes S3 and API traffic.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.injectFault(w) {
		return
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/s3/"):
		s.serveS3(w, r)
	case r.URL.Path == "/api":
		s.serveAPI(w, r)
	case r.URL.Path == inferPath:
		s.serveInfer(w, r)
	default:
		writeErr(w, &apiError{Code: "NotFound", Status: 404, Message: r.URL.Path})
	}
}

func (s *Server) serveS3(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/s3/")
	bucket, key, hasKey := strings.Cut(rest, "/")
	if bucket == "" {
		writeErr(w, &apiError{Code: "InvalidBucketName", Status: 400, Message: "missing bucket"})
		return
	}
	var err error
	switch {
	case !hasKey || key == "":
		switch r.Method {
		case http.MethodPut:
			err = s.store.createBucket(bucket)
			if err == nil {
				w.WriteHeader(http.StatusOK)
			}
		case http.MethodGet:
			var keys []string
			keys, err = s.store.list(bucket, r.URL.Query().Get("prefix"))
			if err == nil {
				writeJSON(w, keys)
			}
		default:
			err = &apiError{Code: "MethodNotAllowed", Status: 405, Message: r.Method}
		}
	default:
		switch r.Method {
		case http.MethodPut:
			var body []byte
			body, err = readObject(w, r)
			if err == nil {
				err = s.store.put(bucket, key, body)
			}
			if err == nil {
				w.WriteHeader(http.StatusOK)
			}
		case http.MethodGet:
			var obj object
			obj, err = s.store.get(bucket, key)
			if err == nil {
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Write(obj.data) //nolint:errcheck
			}
		case http.MethodDelete:
			err = s.store.delete(bucket, key)
			if err == nil {
				w.WriteHeader(http.StatusNoContent)
			}
		default:
			err = &apiError{Code: "MethodNotAllowed", Status: 405, Message: r.Method}
		}
	}
	if err != nil {
		writeErr(w, err)
	}
}

// readObject reads a PUT body into one buffer, sized from Content-Length or
// grown under the same cap when chunked: 413 over the cap, 400 when short.
func readObject(w http.ResponseWriter, r *http.Request) (body []byte, err error) {
	switch n := r.ContentLength; {
	case n > maxObjectBytes:
		err = &http.MaxBytesError{Limit: maxObjectBytes}
	case n < 0:
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxObjectBytes))
	default:
		body = make([]byte, n)
		if _, err = io.ReadFull(r.Body, body); err != nil {
			return nil, &apiError{Code: "IncompleteBody", Status: 400, Message: "body shorter than its Content-Length"}
		}
	}
	if isTooLarge(err) {
		return nil, &apiError{Code: "EntityTooLarge", Status: 413, Message: err.Error()}
	}
	return body, err
}

func isTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// apiRequest is the JSON envelope of the action API.
type apiRequest struct {
	Action string `json:"Action"`

	// CreateFpgaImage
	Name        string `json:"Name,omitempty"`
	Description string `json:"Description,omitempty"`
	InputBucket string `json:"InputBucket,omitempty"`
	InputKey    string `json:"InputKey,omitempty"`
	LogsBucket  string `json:"LogsBucket,omitempty"`

	// DescribeFpgaImages
	FpgaImageIDs []string `json:"FpgaImageIds,omitempty"`

	// RunInstances / instance ops
	InstanceType string `json:"InstanceType,omitempty"`
	InstanceID   string `json:"InstanceId,omitempty"`
	Slot         int    `json:"Slot,omitempty"`
	AgfiID       string `json:"AgfiId,omitempty"`
}

// apiResponse is the JSON result envelope.
type apiResponse struct {
	AFI        *AFIRecord   `json:"Afi,omitempty"`
	AFIs       []*AFIRecord `json:"Afis,omitempty"`
	Instance   *Instance    `json:"Instance,omitempty"`
	Instances  []*Instance  `json:"Instances,omitempty"`
	SlotStatus *SlotStatus  `json:"SlotStatus,omitempty"`
}

func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &apiError{Code: "MethodNotAllowed", Status: 405, Message: r.Method})
		return
	}
	var req apiRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAPIBodyBytes)).Decode(&req); err != nil {
		ae := &apiError{Code: "MalformedRequest", Status: 400, Message: err.Error()}
		if isTooLarge(err) {
			ae.Code, ae.Status = "RequestEntityTooLarge", 413
		}
		writeErr(w, ae)
		return
	}
	var resp apiResponse
	var err error
	switch req.Action {
	case "CreateFpgaImage":
		// The paper's constraint: AFI creation needs the Xilinx licences of
		// the FPGA Developer AMI.
		if !s.licenses[r.Header.Get("X-Condor-License")] {
			writeErr(w, &apiError{Code: "LicenseRequired", Status: 403,
				Message: "AFI creation requires the Xilinx tool licences provided by the FPGA Developer AMI"})
			return
		}
		resp.AFI, err = s.afi.create(req.InputBucket, req.InputKey, req.LogsBucket, req.Name, req.Description)
	case "DescribeFpgaImages":
		resp.AFIs, err = s.afi.describe(req.FpgaImageIDs)
	case "RunInstances":
		resp.Instance, err = s.ec2.runInstance(req.InstanceType)
	case "DescribeInstances":
		resp.Instances = s.ec2.describeInstances()
	case "TerminateInstances":
		err = s.ec2.terminate(req.InstanceID)
	case "LoadFpgaImage":
		err = s.ec2.loadImage(req.InstanceID, req.Slot, req.AgfiID)
	case "DescribeFpgaLocalImage":
		resp.SlotStatus, err = s.ec2.describeSlot(req.InstanceID, req.Slot)
	default:
		err = &apiError{Code: "InvalidAction", Status: 400, Message: req.Action}
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, resp)
}

// The host program's endpoint: POST inferPath?InstanceId=…&Slot=…&Batch=…&
// WeightsBucket=…&WeightsKey=… with the batch's EncodeBatch bytes as the
// body, capped like an S3 PUT. The reply's body is the outputs in the same
// encoding, and kernelMsHeader carries the modeled kernel milliseconds.
const (
	inferPath      = "/infer"
	kernelMsHeader = "X-Condor-Kernel-Ms"
)

func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &apiError{Code: "MethodNotAllowed", Status: 405, Message: r.Method})
		return
	}
	q := r.URL.Query()
	slot, err1 := strconv.Atoi(q.Get("Slot"))
	batch, err2 := strconv.Atoi(q.Get("Batch"))
	if err := errors.Join(err1, err2); err != nil {
		writeErr(w, &apiError{Code: "MalformedRequest", Status: 400, Message: err.Error()})
		return
	}
	input, err := readObject(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	out, ms, err := s.ec2.executeInference(q.Get("InstanceId"), slot, q.Get("WeightsBucket"), q.Get("WeightsKey"), batch, input)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(kernelMsHeader, strconv.FormatFloat(ms, 'g', -1, 64))
	w.Write(tensor.LEBytes(out)) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeErr(w http.ResponseWriter, err error) {
	ae, ok := err.(*apiError)
	if !ok {
		ae = &apiError{Code: "InternalError", Status: 500, Message: err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	json.NewEncoder(w).Encode(ae) //nolint:errcheck
}
