package aws

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// zeros is an endless body that costs the test nothing to send.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestS3BodyCaps drives the real handler with the bodies the presized PUT
// read must refuse: a declared length over the cap (refused before any
// buffer exists), a body shorter than its declared length, a chunked body
// that runs past the cap, and an oversized /api request.
func TestS3BodyCaps(t *testing.T) {
	srv := NewServer(Options{AFIGenerationDelay: time.Millisecond})
	if err := srv.store.createBucket("caps"); err != nil {
		t.Fatal(err)
	}
	put := func(body io.Reader, length int64) *http.Request {
		r := httptest.NewRequest(http.MethodPut, "/s3/caps/obj", body)
		r.ContentLength = length
		return r
	}
	apiBody := func(name string) io.Reader {
		b, _ := json.Marshal(apiRequest{Action: "DescribeFpgaImages", FpgaImageIDs: []string{name}})
		return bytes.NewReader(b)
	}
	for _, tc := range []struct {
		name   string
		req    *http.Request
		status int
		code   string
	}{
		{"declared over the cap", put(strings.NewReader("x"), maxObjectBytes+1), 413, "EntityTooLarge"},
		{"shorter than declared", put(strings.NewReader("0123456789"), 100), 400, "IncompleteBody"},
		{"chunked past the cap", put(io.LimitReader(zeros{}, maxObjectBytes+1), -1), 413, "EntityTooLarge"},
		{"chunked under the cap", put(strings.NewReader("chunked"), -1), 200, ""},
		{"declared length", put(strings.NewReader("declared"), 8), 200, ""},
		{"api over the cap", httptest.NewRequest(http.MethodPost, "/api", apiBody(strings.Repeat("x", maxAPIBodyBytes))), 413, "RequestEntityTooLarge"},
		{"api under the cap", httptest.NewRequest(http.MethodPost, "/api", apiBody("afi-missing")), 404, "InvalidFpgaImageID.NotFound"},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, tc.req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if tc.code == "" {
			continue
		}
		var ae apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Code != tc.code {
			t.Errorf("%s: body %q, want code %s", tc.name, rec.Body, tc.code)
		}
	}
	if got, err := srv.store.get("caps", "obj"); err != nil || string(got.data) != "declared" {
		t.Fatalf("object after the accepted PUTs = %q, %v", got.data, err)
	}
}

// TestObjectStoreOwnership pins the copy-free contract: get hands out the
// slice put stored, and replacing the object leaves a slice already handed
// out untouched. Every put, a replacement of the same bytes included, gives
// the object a new generation.
func TestObjectStoreOwnership(t *testing.T) {
	s := newObjectStore()
	if err := s.createBucket("own"); err != nil {
		t.Fatal(err)
	}
	first := []byte("first version")
	if err := s.put("own", "k", first); err != nil {
		t.Fatal(err)
	}
	obj, err := s.get("own", "k")
	if err != nil {
		t.Fatal(err)
	}
	got := obj.data
	if &got[0] != &first[0] {
		t.Fatal("get copied the object")
	}
	if err := s.put("own", "k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if string(got) != "first version" {
		t.Fatalf("replacing the object rewrote a slice already handed out: %q", got)
	}
	gens := []uint64{obj.gen}
	for _, data := range [][]byte{[]byte("second"), []byte("second")} {
		if err := s.put("own", "k", data); err != nil {
			t.Fatal(err)
		}
		o, err := s.get("own", "k")
		if err != nil {
			t.Fatal(err)
		}
		if o.gen <= gens[len(gens)-1] {
			t.Fatalf("generations %v then %d: a put must raise the generation", gens, o.gen)
		}
		gens = append(gens, o.gen)
	}
}
