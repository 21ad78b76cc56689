package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"condor/internal/dataflow"
	"condor/internal/obs"
	"condor/internal/tensor"
)

// InputShape is the image geometry the served accelerator accepts.
type InputShape struct {
	Channels int `json:"channels"`
	Height   int `json:"height"`
	Width    int `json:"width"`
}

// Volume returns the number of float32 words per image.
func (s InputShape) Volume() int { return s.Channels * s.Height * s.Width }

// The /infer body is capped before it is parsed. A float32 prints in at most
// 16 bytes in shortest round-trip form and encoding/json's plain-decimal
// form of one reaches 22 (|x| near 1e20); a client that formats float64s
// writes up to 24. inferBytesPerWord covers any of them with its separator
// and some whitespace; inferEnvelopeBytes covers {"image":[]} and padding.
const (
	inferBytesPerWord  = 32
	inferEnvelopeBytes = 256
)

// InferRequest is the JSON body of POST /infer: one image, row-major NCHW.
type InferRequest struct {
	Image []float32 `json:"image"`
}

// InferResponse is the JSON reply of POST /infer.
type InferResponse struct {
	Output   []float32 `json:"output"`
	Argmax   int       `json:"argmax"`
	KernelMs float64   `json:"kernel_ms"`
	Backend  string    `json:"backend,omitempty"`
}

// HealthResponse is the JSON reply of GET /healthz; probes use the input
// shape to build well-formed requests.
type HealthResponse struct {
	Status   string     `json:"status"`
	Input    InputShape `json:"input"`
	Backends int        `json:"backends"`
}

type httpError struct {
	Error string `json:"error"`
}

// HandlerOption customises NewHandler beyond its required arguments.
type HandlerOption func(*handlerOptions)

type handlerOptions struct {
	tracer obs.Tracer
}

// WithRequestTracer records one annotated span per /infer request (request
// id + executing backend) on the given tracer, so a fleet-level request can
// be stitched across the router's and every node's trace.
func WithRequestTracer(tr obs.Tracer) HandlerOption {
	return func(o *handlerOptions) { o.tracer = tr }
}

// NewHandler exposes a Server over HTTP:
//
//	POST /infer   {"image":[...]}  → {"output":[...],"argmax":n,"kernel_ms":x}
//	GET  /healthz                  → {"status":"ok","input":{...},"backends":n}
//	GET  /readyz                   → 200 while serving, 503 once draining
//	GET  /statsz                   → the Stats snapshot
//
// /healthz is liveness (the process answers); /readyz is readiness — it
// turns 503 the moment Shutdown starts, so a fleet router probing it stops
// routing to a draining node while its in-flight requests still complete.
//
// Every /infer reply echoes an X-Condor-Request-ID header: the inbound one
// when the caller (the fleet router) supplied it, a freshly minted id for
// direct traffic.
//
// requestTimeout bounds each inference request's time in the serving
// pipeline (queueing + device); 0 means no per-request deadline.
// Backpressure maps to 429, deadlines to 504, shutdown to 503, a body larger
// than any image of the input shape could need to 413, an image the fabric
// rejects (dataflow.ErrNonFiniteInput) to 400.
func NewHandler(s *Server, input InputShape, requestTimeout time.Duration, opts ...HandlerOption) http.Handler {
	var o handlerOptions
	for _, opt := range opts {
		opt(&o)
	}
	maxBody := inferEnvelopeBytes + inferBytesPerWord*int64(input.Volume())
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, HealthResponse{
			Status:   "ok",
			Input:    input,
			Backends: len(s.cfg.Backends),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{
			Status:   "ready",
			Input:    input,
			Backends: len(s.cfg.Backends),
		})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "POST required"})
			return
		}
		rid := r.Header.Get(obs.RequestIDHeader)
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, rid)
		// Presized, so the decoder appends in place instead of regrowing.
		req := InferRequest{Image: make([]float32, 0, input.Volume())}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeJSON(w, http.StatusRequestEntityTooLarge, httpError{
					Error: fmt.Sprintf("body exceeds %d bytes, the cap for a %dx%dx%d image",
						maxBody, input.Channels, input.Height, input.Width),
				})
				return
			}
			writeJSON(w, http.StatusBadRequest, httpError{Error: "malformed JSON: " + err.Error()})
			return
		}
		if len(req.Image) != input.Volume() {
			writeJSON(w, http.StatusBadRequest, httpError{
				Error: fmt.Sprintf("image has %d words, accelerator input %dx%dx%d needs %d",
					len(req.Image), input.Channels, input.Height, input.Width, input.Volume()),
			})
			return
		}
		ctx := obs.WithRequestID(r.Context(), rid)
		if requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, requestTimeout)
			defer cancel()
		}
		img := tensor.FromSlice(req.Image, input.Channels, input.Height, input.Width)
		var span struct {
			track *obs.Track
			id    int
		}
		if o.tracer != nil {
			// One fresh single-writer track per request: this handler
			// goroutine is the only writer, so annotation stays lock-free.
			span.track = o.tracer.Track("serve.infer")
			span.id = span.track.Begin("infer", 0)
			span.track.Annotate(span.id, "request_id", rid)
		}
		res, err := s.SubmitDetailed(ctx, img)
		if span.track != nil {
			if res.Backend != "" {
				span.track.Annotate(span.id, "backend", res.Backend)
			}
			span.track.End(span.id, 0)
		}
		if err != nil {
			writeJSON(w, statusForErr(err), httpError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, InferResponse{
			Output:   res.Output.Data(),
			Argmax:   argmax(res.Output.Data()),
			KernelMs: res.KernelMs,
			Backend:  res.Backend,
		})
	})
	return mux
}

func statusForErr(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, dataflow.ErrNonFiniteInput):
		// The image itself is unservable on a quantized fabric: no retry and
		// no other replica would answer differently.
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func argmax(vals []float32) int {
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return best
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}
