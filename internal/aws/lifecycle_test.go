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

// devices returns the slot devices of an instance, terminated or not.
func devices(srv *Server, id string) []*sdaccel.Device {
	srv.ec2.mu.Lock()
	defer srv.ec2.mu.Unlock()
	return srv.ec2.instances[id].devices
}

// tc1Cloud returns a server holding an available TC1 AFI plus its weights
// and a one-image input in bucket "condor-lc", and the AFI's global id.
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
	for key, data := range map[string][]byte{
		"d.tar": tarball, "w.cndw": wbytes, "in.bin": EncodeBatch(models.USPSImages(1, 8)[0].Data()),
	} {
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
		work := []apiRequest{
			{Action: "ExecuteInference", InstanceID: id, WeightsBucket: "condor-lc", WeightsKey: "w.cndw",
				InputDataBucket: "condor-lc", InputDataKey: "in.bin", OutputBucket: "condor-lc", OutputKey: "out.bin", Batch: 1},
			load,
		}
		// All three start together; the terminate lags by 0–1 ms, stepping
		// across iterations, so it lands before, during and after the work.
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, len(work))
		for j, req := range work {
			wg.Add(1)
			go func(j int, req apiRequest) {
				defer wg.Done()
				<-start
				_, errs[j] = call(srv, req)
			}(j, req)
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
					t.Fatalf("iteration %d: %s racing terminate: %v, want success or 409 IncorrectInstanceState", i, work[j].Action, err)
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
