package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"condor/internal/dataflow"
)

func newTestHandler(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	fb := &fakeBackend{id: "b0", kernelMs: 1}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	return s, NewHandler(s, InputShape{Channels: 1, Height: 2, Width: 2}, time.Second)
}

func TestHTTPInfer(t *testing.T) {
	s, h := newTestHandler(t)
	defer mustShutdown(t, s)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	body, _ := json.Marshal(InferRequest{Image: []float32{0.1, 0.9, 0.3, 0.2}})
	resp, err := client.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer status %d", resp.StatusCode)
	}
	var ir InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	// The fake backend echoes its input, so argmax picks the 0.9 word.
	if ir.Argmax != 1 || len(ir.Output) != 4 {
		t.Fatalf("infer response %+v", ir)
	}
	if ir.KernelMs <= 0 {
		t.Fatalf("kernel ms %v, want > 0", ir.KernelMs)
	}
}

func TestHTTPBadShape(t *testing.T) {
	s, h := newTestHandler(t)
	defer mustShutdown(t, s)
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(InferRequest{Image: []float32{1, 2, 3}})
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short image: status %d, want 400", rec.Code)
	}
}

// A body larger than any image of the input shape could need is refused with
// 413 before it is parsed to the end, and nothing is admitted; a well-formed
// image at the widest float32 rendering, padded to exactly the cap, is served.
func TestHTTPBodyCap(t *testing.T) {
	s, h := newTestHandler(t)
	defer mustShutdown(t, s)
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		return rec
	}

	huge, _ := json.Marshal(InferRequest{Image: make([]float32, 4096)})
	rec := post(huge)
	var envelope httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("oversize body: reply %q is not the error envelope (%v)", rec.Body.String(), err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", rec.Code)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("oversize body: %d requests admitted, want 0", st.Admitted)
	}

	// encoding/json prints -1e20 as float32 in 22 bytes, its longest form.
	widest, _ := json.Marshal(InferRequest{Image: []float32{-1e20, -1e20, -1e20, -1e20}})
	limit := inferEnvelopeBytes + inferBytesPerWord*4
	if len(widest) > limit {
		t.Fatalf("a 4-word image at the widest rendering is %d bytes, over the %d-byte cap", len(widest), limit)
	}
	atCap := append(widest, bytes.Repeat([]byte(" "), limit-len(widest))...)
	if rec := post(atCap); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: status %d (%s), want 200", limit, rec.Code, rec.Body.String())
	}
}

func TestHTTPHealthAndStats(t *testing.T) {
	s, h := newTestHandler(t)
	defer mustShutdown(t, s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Input.Volume() != 4 || hr.Backends != 1 {
		t.Fatalf("health %+v", hr)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz status %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.QueueCapacity != 16 {
		t.Fatalf("statsz queue capacity %d, want 16", st.QueueCapacity)
	}
}

func TestHTTPBackpressureStatus(t *testing.T) {
	if got := statusForErr(ErrQueueFull); got != http.StatusTooManyRequests {
		t.Fatalf("ErrQueueFull → %d, want 429", got)
	}
	if got := statusForErr(ErrClosed); got != http.StatusServiceUnavailable {
		t.Fatalf("ErrClosed → %d, want 503", got)
	}
	if got := statusForErr(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("DeadlineExceeded → %d, want 504", got)
	}
}

// A request the fabric rejects as unservable — a non-finite pixel on an int8
// deployment — is the client's error, however deep the backend wrapped it.
func TestHTTPNonFiniteInputIs400(t *testing.T) {
	fb := &fakeBackend{id: "b0", err: fmt.Errorf("dataflow: image 0 element 1 is NaN: %w", dataflow.ErrNonFiniteInput)}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, s)
	h := NewHandler(s, InputShape{Channels: 1, Height: 2, Width: 2}, time.Second)
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(InferRequest{Image: []float32{0.1, 0.9, 0.3, 0.2}})
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("rejected image: status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}
