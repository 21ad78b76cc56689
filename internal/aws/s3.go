// Package aws is an in-process implementation of the three AWS services the
// Condor cloud flow depends on — an S3-like object store, the EC2 FPGA
// image (AFI) pipeline and F1 instances with FPGA slots — served over real
// HTTP, plus the client SDK the framework and the CLI use. The deployment
// path is exercised exactly as the paper describes: the design tarball is
// uploaded to a user S3 bucket, AFI generation runs asynchronously
// (pending → available), the returned global AFI id is loaded onto an F1
// slot, and inference runs against the slot.
package aws

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// objectStore is the S3 backend: buckets of named byte objects, immutable
// once stored, so the store copies nothing. put takes ownership of data (the
// caller must not write to it afterwards); get returns the stored slice,
// which callers only read. A put replaces an object, never writes into it.
type objectStore struct {
	mu      sync.RWMutex
	buckets map[string]map[string]object
	gen     uint64 // puts so far: the generation of the latest object
}

// object is one stored object. Its generation is the number of the put that
// stored it, unique in the store, so a reader that remembers (bucket, key,
// generation) knows whether it still holds that very object.
type object struct {
	data []byte
	gen  uint64
}

func newObjectStore() *objectStore {
	return &objectStore{buckets: make(map[string]map[string]object)}
}

func validBucketName(b string) bool {
	if len(b) < 3 || len(b) > 63 {
		return false
	}
	for _, r := range b {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '.') {
			return false
		}
	}
	return !strings.HasPrefix(b, "-") && !strings.HasSuffix(b, "-")
}

func (s *objectStore) createBucket(name string) error {
	if !validBucketName(name) {
		return &apiError{Code: "InvalidBucketName", Status: 400, Message: fmt.Sprintf("bucket name %q is invalid", name)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return &apiError{Code: "BucketAlreadyExists", Status: 409, Message: name}
	}
	s.buckets[name] = make(map[string]object)
	return nil
}

func (s *objectStore) put(bucket, key string, data []byte) error {
	if key == "" {
		return &apiError{Code: "InvalidKey", Status: 400, Message: "empty object key"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return &apiError{Code: "NoSuchBucket", Status: 404, Message: bucket}
	}
	s.gen++
	b[key] = object{data: data, gen: s.gen}
	return nil
}

func (s *objectStore) get(bucket, key string) (object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return object{}, &apiError{Code: "NoSuchBucket", Status: 404, Message: bucket}
	}
	obj, ok := b[key]
	if !ok {
		return object{}, &apiError{Code: "NoSuchKey", Status: 404, Message: bucket + "/" + key}
	}
	return obj, nil
}

func (s *objectStore) delete(bucket, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return &apiError{Code: "NoSuchBucket", Status: 404, Message: bucket}
	}
	if _, ok := b[key]; !ok {
		return &apiError{Code: "NoSuchKey", Status: 404, Message: bucket + "/" + key}
	}
	delete(b, key)
	return nil
}

func (s *objectStore) list(bucket, prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, &apiError{Code: "NoSuchBucket", Status: 404, Message: bucket}
	}
	var keys []string
	for k := range b {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// apiError is the service error envelope; it maps onto HTTP status codes
// and the AWS-style {Code, Message} JSON body.
type apiError struct {
	Code    string `json:"Code"`
	Message string `json:"Message"`
	Status  int    `json:"-"`
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }
