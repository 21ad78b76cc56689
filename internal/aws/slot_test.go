package aws

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/tensor"
)

// TestWarmSlotKeepsWeights: a slot loads the weights object once and serves
// later batches from the resident fabric, reloads when the object is PUT
// again under the same key — the new weights, never the old — and reloads
// after LoadFpgaImage, which drops what the fabric held. A reload replaces
// the slot's compute unit, so the unit's kernel count restarts at one.
func TestWarmSlotKeepsWeights(t *testing.T) {
	srv, agfi := tc1Cloud(t)
	defer srv.Close()
	resp, err := call(srv, apiRequest{Action: "RunInstances", InstanceType: "f1.2xlarge"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Instance.InstanceID
	if _, err := call(srv, apiRequest{Action: "LoadFpgaImage", InstanceID: id, AgfiID: agfi}); err != nil {
		t.Fatal(err)
	}
	dev := devices(srv, id)[0]
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	img := models.USPSImages(1, 8)[0]
	// run infers one image and checks the output against the reference
	// engine under ws, and the unit's kernel count against kernels.
	run := func(step string, ws *condorir.WeightSet, kernels int64) []float32 {
		t.Helper()
		out, err := infer(srv, tc1Job(id))
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		net, err := ir.BuildNN(ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := net.Predict(img)
		if err != nil {
			t.Fatal(err)
		}
		if got := tensor.FromSlice(out, len(out), 1, 1); !tensor.AllClose(got, want.Reshape(len(out), 1, 1), 2e-3) {
			t.Fatalf("%s: output %v, the reference gives %v", step, out, want.Data())
		}
		if cus := dev.CUCounters(); len(cus) != 1 || cus[0].Kernels != kernels {
			t.Fatalf("%s: compute units %+v, want one at %d kernels", step, cus, kernels)
		}
		return out
	}
	run("first batch", ws, 1)
	first := run("warm batch", ws, 2)

	// The same key, new weights: every bias shifted by one.
	wbytes, err := ws.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := condorir.ParseWeights(wbytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range shifted.Entries() {
		if e.Kind == condorir.EntryBias {
			for i := range e.Data {
				e.Data[i]++
			}
		}
	}
	sbytes, err := shifted.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.store.put("condor-lc", "w.cndw", sbytes); err != nil {
		t.Fatal(err)
	}
	if out := run("after the re-PUT", shifted, 1); slicesEqual(out, first) {
		t.Fatal("the re-PUT weights left the output unchanged")
	}
	run("warm again", shifted, 2)

	if _, err := call(srv, apiRequest{Action: "LoadFpgaImage", InstanceID: id, AgfiID: agfi}); err != nil {
		t.Fatal(err)
	}
	if cus := dev.CUCounters(); len(cus) != 0 {
		t.Fatalf("LoadFpgaImage left %d compute units with the old weights", len(cus))
	}
	run("after LoadFpgaImage", shifted, 1)
}

func slicesEqual(a, b []float32) bool {
	return bytes.Equal(tensor.LEBytes(a), tensor.LEBytes(b))
}

// TestInferRefusesHostileInput: the host program checks the request before
// the slot does any work. A body whose size is not Batch images of the
// loaded fabric's input gets 400, a body declared over the S3 object cap
// gets 413 without being read, and a malformed Batch gets 400; in every case
// the slot's fabric stays without weights.
func TestInferRefusesHostileInput(t *testing.T) {
	srv, agfi := tc1Cloud(t)
	defer srv.Close()
	resp, err := call(srv, apiRequest{Action: "RunInstances", InstanceType: "f1.2xlarge"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Instance.InstanceID
	if _, err := call(srv, apiRequest{Action: "LoadFpgaImage", InstanceID: id, AgfiID: agfi}); err != nil {
		t.Fatal(err)
	}
	one := tc1Job(id)
	for _, tc := range []struct {
		name   string
		req    func() *http.Request
		status int
		code   string
	}{
		{"batch 2 with one image", func() *http.Request {
			job := one
			job.Batch = 2
			return httptest.NewRequest(http.MethodPost, job.path(), bytes.NewReader(job.Input))
		}, 400, "InvalidInput"},
		{"one image and a stray byte", func() *http.Request {
			return httptest.NewRequest(http.MethodPost, one.path(), bytes.NewReader(append(one.Input[:len(one.Input):len(one.Input)], 0)))
		}, 400, "InvalidInput"},
		{"batch 0 with no body", func() *http.Request {
			job := one
			job.Batch, job.Input = 0, nil
			return httptest.NewRequest(http.MethodPost, job.path(), nil)
		}, 400, "InvalidInput"},
		{"batch not a number", func() *http.Request {
			return httptest.NewRequest(http.MethodPost, inferPath+"?InstanceId="+id+"&Slot=0&Batch=x", bytes.NewReader(one.Input))
		}, 400, "MalformedRequest"},
		{"body declared over the cap", func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, one.path(), bytes.NewReader(one.Input))
			r.ContentLength = maxObjectBytes + 1
			return r
		}, 413, "EntityTooLarge"},
	} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, tc.req())
		err := decodeAPIError(w.Code, w.Body.Bytes())
		if ae, ok := err.(*apiError); !ok || w.Code != tc.status || ae.Code != tc.code {
			t.Errorf("%s: %d %v, want %d %s", tc.name, w.Code, err, tc.status, tc.code)
		}
		if cus := devices(srv, id)[0].CUCounters(); len(cus) != 0 {
			t.Fatalf("%s: the slot loaded its weights for a refused batch", tc.name)
		}
	}
	if _, err := infer(srv, one); err != nil {
		t.Fatalf("a well-formed batch after the refused ones: %v", err)
	}
}
