package aws

import (
	"fmt"
	"sync"
	"time"

	"condor/internal/bitstream"
)

// AFI generation states, matching the EC2 API.
const (
	AFIPending   = "pending"
	AFIAvailable = "available"
	AFIFailed    = "failed"
)

// AFIRecord is one Amazon FPGA Image tracked by the service.
type AFIRecord struct {
	FpgaImageID       string `json:"FpgaImageId"`
	FpgaImageGlobalID string `json:"FpgaImageGlobalId"`
	Name              string `json:"Name"`
	Description       string `json:"Description"`
	State             string `json:"State"`
	StateReason       string `json:"StateReason,omitempty"`
	ShellVersion      string `json:"ShellVersion,omitempty"`
}

// afiService owns the AFI records and the asynchronous generation pipeline.
type afiService struct {
	mu       sync.Mutex
	store    *objectStore
	records  map[string]*AFIRecord // by afi id
	byGlobal map[string]string     // agfi id -> afi id
	images   map[string][]byte     // agfi id -> xclbin payload (the "ingested" design)
	next     int

	// workers joins the asynchronous generation goroutines: without it a
	// server torn down with AFIs still pending leaks workers that mutate
	// records nobody owns anymore. Quiesce waits on it.
	workers sync.WaitGroup

	// generationDelay is how long an AFI stays pending before the pipeline
	// validates it (the real service takes ~an hour; tests use milliseconds).
	generationDelay time.Duration
}

func newAFIService(store *objectStore, delay time.Duration) *afiService {
	return &afiService{
		store:    store,
		records:  make(map[string]*AFIRecord),
		byGlobal: make(map[string]string),
		images:   make(map[string][]byte),

		generationDelay: delay,
	}
}

// create starts AFI generation from a design tarball previously uploaded to
// S3. It returns immediately with a pending record; a background worker
// validates the tarball, writes the generation log next to it, and flips
// the state to available or failed.
func (a *afiService) create(inputBucket, inputKey, logsBucket, name, description string) (*AFIRecord, error) {
	// The input must exist up front (the real API validates the location).
	if _, err := a.store.get(inputBucket, inputKey); err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.next++
	rec := &AFIRecord{
		FpgaImageID:       fmt.Sprintf("afi-%017d", a.next),
		FpgaImageGlobalID: fmt.Sprintf("agfi-%017d", a.next),
		Name:              name,
		Description:       description,
		State:             AFIPending,
	}
	a.records[rec.FpgaImageID] = rec
	a.byGlobal[rec.FpgaImageGlobalID] = rec.FpgaImageID
	snap := snapshot(rec) // copy under the lock: the worker mutates rec
	a.mu.Unlock()

	a.workers.Add(1)
	go a.generate(snap.FpgaImageID, inputBucket, inputKey, logsBucket)
	return snap, nil
}

// generate is the asynchronous AFI pipeline worker.
func (a *afiService) generate(afiID, bucket, key, logsBucket string) {
	defer a.workers.Done()
	time.Sleep(a.generationDelay)
	obj, err := a.store.get(bucket, key)
	var manifest *bitstream.AFIManifest
	var xclbin []byte
	if err == nil {
		manifest, xclbin, err = bitstream.ReadAFITarball(obj.data)
	}
	a.mu.Lock()
	rec := a.records[afiID]
	logBody := ""
	if err != nil {
		rec.State = AFIFailed
		rec.StateReason = err.Error()
		logBody = fmt.Sprintf("AFI %s generation FAILED: %v\n", afiID, err)
	} else {
		rec.State = AFIAvailable
		rec.ShellVersion = manifest.ShellVer
		a.images[rec.FpgaImageGlobalID] = xclbin
		logBody = fmt.Sprintf("AFI %s generation OK: kernel=%s board=%s fclk=%.0fMHz\n",
			afiID, manifest.Kernel, manifest.Board, manifest.AchievedMHz)
	}
	a.mu.Unlock()
	if logsBucket != "" {
		// Best-effort: a missing logs bucket does not fail generation.
		_ = a.store.put(logsBucket, "logs/"+afiID+".txt", []byte(logBody))
	}
}

// describe returns the records for the requested ids (all when empty).
func (a *afiService) describe(ids []string) ([]*AFIRecord, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(ids) == 0 {
		out := make([]*AFIRecord, 0, len(a.records))
		for _, r := range a.records {
			out = append(out, snapshot(r))
		}
		return out, nil
	}
	out := make([]*AFIRecord, 0, len(ids))
	for _, id := range ids {
		r, ok := a.records[id]
		if !ok {
			return nil, &apiError{Code: "InvalidFpgaImageID.NotFound", Status: 404, Message: id}
		}
		out = append(out, snapshot(r))
	}
	return out, nil
}

// imageForGlobal returns the ingested xclbin for an available AFI.
func (a *afiService) imageForGlobal(agfi string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	afiID, ok := a.byGlobal[agfi]
	if !ok {
		return nil, &apiError{Code: "InvalidFpgaImageID.NotFound", Status: 404, Message: agfi}
	}
	if st := a.records[afiID].State; st != AFIAvailable {
		return nil, &apiError{Code: "FpgaImageNotAvailable", Status: 409, Message: fmt.Sprintf("%s is %s", agfi, st)}
	}
	return a.images[agfi], nil
}

func snapshot(r *AFIRecord) *AFIRecord {
	cp := *r
	return &cp
}
