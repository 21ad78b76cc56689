package aws

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"condor/internal/models"
	"condor/internal/sdaccel"
)

// call drives one API action through the server's HTTP handler in process
// (no listener, so no connection goroutines) and returns the decoded reply
// or the API error.
func call(srv *Server, req apiRequest) (*apiResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r := httptest.NewRequest(http.MethodPost, "/api", bytes.NewReader(body))
	r.Header.Set("X-Condor-License", DefaultLicense)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code >= 400 {
		return nil, decodeAPIError(w.Code, w.Body.Bytes())
	}
	var resp apiResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// infer drives one batch of job through the host program's endpoint in
// process and returns the outputs or the API error.
func infer(srv *Server, job InferenceJob) ([]float32, error) {
	r := httptest.NewRequest(http.MethodPost, job.path(), bytes.NewReader(job.Input))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code >= 400 {
		return nil, decodeAPIError(w.Code, w.Body.Bytes())
	}
	return DecodeBatch(w.Body.Bytes())
}

// tc1Job is a one-image TC1 batch for slot 0 of the instance, with the
// weights tc1Cloud stores.
func tc1Job(id string) InferenceJob {
	return InferenceJob{InstanceID: id, Batch: 1, Weights: ObjectRef{"condor-lc", "w.cndw"},
		Input: EncodeBatch(models.USPSImages(1, 8)[0].Data())}
}

// devices returns the slot devices of an instance, terminated or not.
func devices(srv *Server, id string) []*sdaccel.Device {
	srv.ec2.mu.Lock()
	defer srv.ec2.mu.Unlock()
	var devs []*sdaccel.Device
	for _, sl := range srv.ec2.instances[id].fpga {
		devs = append(devs, sl.dev)
	}
	return devs
}

// tc1Cloud returns a server holding an available TC1 AFI plus its weights
// in bucket "condor-lc", and the AFI's global id.
func tc1Cloud(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(Options{AFIGenerationDelay: time.Millisecond})
	tarball, ws, _ := buildTC1Tarball(t)
	wbytes, err := ws.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.store.createBucket("condor-lc"); err != nil {
		t.Fatal(err)
	}
	for key, data := range map[string][]byte{"d.tar": tarball, "w.cndw": wbytes} {
		if err := srv.store.put("condor-lc", key, data); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := call(srv, apiRequest{Action: "CreateFpgaImage", Name: "tc1", InputBucket: "condor-lc", InputKey: "d.tar"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	return srv, resp.AFI.FpgaImageGlobalID
}

// TestTerminateRacesInFlightWork: TerminateInstances lands while a host
// program runs and an image loads on the same slot. Each of those calls
// either succeeds or gets 409 IncorrectInstanceState — it never reprograms
// or reloads the closed device — the slot's device ends closed, and every
// fabric goroutine is joined.
func TestTerminateRacesInFlightWork(t *testing.T) {
	srv, agfi := tc1Cloud(t)
	baseline := runtime.NumGoroutine()
	var outcomes [2]map[string]int
	for i := range outcomes {
		outcomes[i] = map[string]int{}
	}
	for i := 0; i < 200; i++ {
		resp, err := call(srv, apiRequest{Action: "RunInstances", InstanceType: "f1.2xlarge"})
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Instance.InstanceID
		load := apiRequest{Action: "LoadFpgaImage", InstanceID: id, AgfiID: agfi}
		if _, err := call(srv, load); err != nil {
			t.Fatal(err)
		}
		work := []func() error{
			func() error { _, err := infer(srv, tc1Job(id)); return err },
			func() error { _, err := call(srv, load); return err },
		}
		// All three start together; the terminate lags by 0–1 ms, stepping
		// across iterations, so it lands before, during and after the work.
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, len(work))
		for j, fn := range work {
			wg.Add(1)
			go func(j int, fn func() error) {
				defer wg.Done()
				<-start
				errs[j] = fn()
			}(j, fn)
		}
		var termErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(i%5) * 250 * time.Microsecond)
			_, termErr = call(srv, apiRequest{Action: "TerminateInstances", InstanceID: id})
		}()
		close(start)
		wg.Wait()
		if termErr != nil {
			t.Fatal(termErr)
		}
		for j, err := range errs {
			code := "ok"
			if err != nil {
				ae, ok := err.(*apiError)
				if !ok || ae.Code != "IncorrectInstanceState" || ae.Status != http.StatusConflict {
					t.Fatalf("iteration %d: %s racing terminate: %v, want success or 409 IncorrectInstanceState", i, []string{"ExecuteInference", "LoadFpgaImage"}[j], err)
				}
				code = ae.Code
			}
			outcomes[j][code]++
		}
		if dev := devices(srv, id)[0]; !dev.Closed() {
			t.Fatalf("iteration %d: slot 0 of the terminated instance is still open", i)
		}
	}
	t.Logf("ExecuteInference %v, LoadFpgaImage %v", outcomes[0], outcomes[1])
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("%d goroutines after 200 terminated instances, %d before", n, baseline)
	}
}

// TestTerminateRacesWarmSlot: TerminateInstances lands while warm batches
// run on a slot that holds its weights and host program. Each batch either
// succeeds or gets 409 IncorrectInstanceState, the slot ends with its
// device closed and its host program and weights record dropped, and every
// fabric goroutine is joined.
func TestTerminateRacesWarmSlot(t *testing.T) {
	srv, agfi := tc1Cloud(t)
	baseline := runtime.NumGoroutine()
	outcomes := map[string]int{}
	for i := 0; i < 100; i++ {
		resp, err := call(srv, apiRequest{Action: "RunInstances", InstanceType: "f1.2xlarge"})
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Instance.InstanceID
		if _, err := call(srv, apiRequest{Action: "LoadFpgaImage", InstanceID: id, AgfiID: agfi}); err != nil {
			t.Fatal(err)
		}
		if _, err := infer(srv, tc1Job(id)); err != nil {
			t.Fatal(err) // the slot is warm from here on
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for j := range errs {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				<-start
				_, errs[j] = infer(srv, tc1Job(id))
			}(j)
		}
		var termErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
			_, termErr = call(srv, apiRequest{Action: "TerminateInstances", InstanceID: id})
		}()
		close(start)
		wg.Wait()
		if termErr != nil {
			t.Fatal(termErr)
		}
		for _, err := range errs {
			code := "ok"
			if err != nil {
				ae, ok := err.(*apiError)
				if !ok || ae.Code != "IncorrectInstanceState" || ae.Status != http.StatusConflict {
					t.Fatalf("iteration %d: warm batch racing terminate: %v, want success or 409 IncorrectInstanceState", i, err)
				}
				code = ae.Code
			}
			outcomes[code]++
		}
		srv.ec2.mu.Lock()
		sl := srv.ec2.instances[id].fpga[0]
		srv.ec2.mu.Unlock()
		sl.mu.Lock()
		kept := sl.prog != nil || sl.weights != (weightsVersion{})
		sl.mu.Unlock()
		if !sl.dev.Closed() || kept {
			t.Fatalf("iteration %d: terminated slot: device closed %v, host program or weights record kept %v", i, sl.dev.Closed(), kept)
		}
	}
	t.Logf("warm ExecuteInference %v", outcomes)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("%d goroutines after 100 terminated warm slots, %d before", n, baseline)
	}
}

// TestTerminatedInstanceStaysVisible: DescribeInstances still lists a
// terminated instance, a second terminate is a no-op, and slot operations
// on it get 409.
func TestTerminatedInstanceStaysVisible(t *testing.T) {
	srv, agfi := tc1Cloud(t)
	resp, err := call(srv, apiRequest{Action: "RunInstances", InstanceType: "f1.4xlarge"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Instance.InstanceID
	for i := 0; i < 2; i++ {
		if _, err := call(srv, apiRequest{Action: "TerminateInstances", InstanceID: id}); err != nil {
			t.Fatalf("terminate %d: %v", i+1, err)
		}
	}
	resp, err = call(srv, apiRequest{Action: "DescribeInstances"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Instances) != 1 || resp.Instances[0].State != "terminated" {
		t.Fatalf("DescribeInstances = %+v, want the one instance, terminated", resp.Instances)
	}
	for s, dev := range devices(srv, id) {
		if !dev.Closed() {
			t.Errorf("slot %d still open after terminate", s)
		}
	}
	_, err = call(srv, apiRequest{Action: "LoadFpgaImage", InstanceID: id, AgfiID: agfi})
	if ae, ok := err.(*apiError); !ok || ae.Status != http.StatusConflict {
		t.Fatalf("LoadFpgaImage on a terminated instance = %v, want 409", err)
	}
}

// TestServerCloseReleasesRunningInstances: Close terminates what is still
// running and closes its devices; calling it again changes nothing.
func TestServerCloseReleasesRunningInstances(t *testing.T) {
	srv, agfi := tc1Cloud(t)
	var ids []string
	for i := 0; i < 2; i++ {
		resp, err := call(srv, apiRequest{Action: "RunInstances", InstanceType: "f1.2xlarge"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Instance.InstanceID)
		if _, err := call(srv, apiRequest{Action: "LoadFpgaImage", InstanceID: ids[i], AgfiID: agfi}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	srv.Close()
	for _, id := range ids {
		if !devices(srv, id)[0].Closed() {
			t.Errorf("%s: device open after Server.Close", id)
		}
	}
	resp, err := call(srv, apiRequest{Action: "DescribeInstances"})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range resp.Instances {
		if inst.State != "terminated" {
			t.Errorf("%s is %s after Server.Close", inst.InstanceID, inst.State)
		}
	}
}

// TestFleetScaleDownFreesDevices: the fleet model scales down through
// TerminateInstances, so a released instance's slots close and the
// instances it keeps stay open.
func TestFleetScaleDownFreesDevices(t *testing.T) {
	srv, c := newTestCloud(t)
	fm, err := NewFleetModel(FleetModelConfig{InstanceType: "f1.4xlarge", SpinUp: time.Millisecond}, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.SetDesiredSlots(4); err != nil {
		t.Fatal(err)
	}
	before := fm.Instances()
	if len(before) != 2 {
		t.Fatalf("%d instances for 4 slots of f1.4xlarge, want 2", len(before))
	}
	if err := fm.SetDesiredSlots(2); err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, inst := range fm.Instances() {
		kept[inst.ID] = true
	}
	for _, inst := range before {
		for s, dev := range devices(srv, inst.ID) {
			if dev.Closed() == kept[inst.ID] {
				t.Errorf("%s slot %d: closed = %v, kept by the fleet = %v", inst.ID, s, dev.Closed(), kept[inst.ID])
			}
		}
	}
	if err := fm.SetDesiredSlots(0); err != nil {
		t.Fatal(err)
	}
	for _, inst := range before {
		for s, dev := range devices(srv, inst.ID) {
			if !dev.Closed() {
				t.Errorf("%s slot %d open after scaling to zero", inst.ID, s)
			}
		}
	}
	if got := fmt.Sprint(fm.Launches(), fm.Terminates()); got != "2 2" {
		t.Errorf("launches, terminates = %s, want 2 2", got)
	}
}
