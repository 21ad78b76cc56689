package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"condor"
	"condor/internal/aws"
	"condor/internal/bitstream"
	"condor/internal/caffe"
	"condor/internal/condorir"
	"condor/internal/dataflow"
	"condor/internal/diag"
	"condor/internal/dse"
	"condor/internal/hls"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/onnx"
	"condor/internal/quant"
	"condor/internal/tensor"
	"condor/internal/verify"
)

// toolflow is the paper's headline path as one op: LeNet prototxt and a
// generated caffemodel through BuildAccelerator (DSE on, F1 board, 180 MHz),
// DeployCloud on an in-process cloud endpoint, Infer of one image, Terminate.
type toolflow struct {
	rec      *recorder
	fw       *condor.Framework
	in       condor.Input
	cloud    *aws.Server
	endpoint *httpNode
	img      []*tensor.Tensor
	want     *tensor.Tensor
	net      *nn.Network
	readyDur time.Duration
	refMs    float64

	last        *condor.Build // the build of the most recent op
	diagnostics int           // of the most recent replay
	apiCalls    int64
	retries     int64
}

// toolflowBucket is the S3 bucket every op deploys through; it is created by
// the first op and reused, as a user's bucket would be.
const toolflowBucket = "condor-benchmark"

func newToolflow(_ context.Context, seed int64, rec *recorder) (instance, error) {
	t0 := time.Now()
	blob, err := models.LeNetCaffeModel(seed)
	if err != nil {
		return nil, err
	}
	// The AFI delay is at its minimum and no faults are injected: the op
	// measures the toolflow's own work, not a simulated hour of synthesis.
	cloud := aws.NewServer(aws.Options{AFIGenerationDelay: time.Nanosecond})
	endpoint, err := serveHTTP(cloud)
	if err != nil {
		return nil, err
	}
	t := &toolflow{
		rec: rec, fw: condor.New(), cloud: cloud, endpoint: endpoint,
		in: condor.Input{
			Prototxt: models.LeNetPrototxt, CaffeModel: blob,
			Board: models.F1Board, FrequencyMHz: models.LeNetFreqMHz, RunDSE: true,
		},
		img: models.MNISTImages(1, seed),
	}
	t.readyDur = time.Since(t0)

	// The oracle: the same model file run by the independent nn engine.
	ir, ws, err := lowerCaffe(t.in)
	if err != nil {
		return nil, err
	}
	if t.net, err = ir.BuildNN(ws); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if t.want, err = t.net.Predict(t.img[0]); err != nil {
		return nil, err
	}
	t.refMs = millis(time.Since(t1))
	return t, nil
}

// lowerCaffe runs the Caffe frontend by hand: parse, merge, lower.
func lowerCaffe(in condor.Input) (*condorir.Network, *condorir.WeightSet, error) {
	topo, err := caffe.ParsePrototxt(in.Prototxt)
	if err != nil {
		return nil, nil, err
	}
	trained, err := caffe.ParseCaffeModel(in.CaffeModel)
	if err != nil {
		return nil, nil, err
	}
	topo.MergeWeights(trained)
	return condorir.FromCaffe(topo, in.Board, in.FrequencyMHz)
}

func (t *toolflow) ready() time.Duration { return t.readyDur }
func (t *toolflow) built() *condor.Build { return t.last }
func (t *toolflow) windowStart()         { t.apiCalls, t.retries = 0, 0 }

func (t *toolflow) op(_ context.Context, i int) outcome {
	t0 := time.Now()
	b, err := t.fw.BuildAccelerator(t.in)
	if err != nil {
		return opError
	}
	t1 := time.Now()
	dep, err := t.fw.DeployCloud(b, condor.CloudConfig{
		Endpoint: t.endpoint.url, License: aws.LicenseFromAMI(), Bucket: toolflowBucket, Slots: 1,
	})
	if err != nil {
		return opError
	}
	t2 := time.Now()
	outs, _, inferErr := dep.Infer(t.img)
	t3 := time.Now()
	termErr := dep.Terminate()
	t4 := time.Now()

	t.last = b
	st := dep.Client.Stats()
	t.apiCalls += st.Requests
	t.retries += st.Retries
	t.rec.add("toolflow.op", "", i, t0, t4, 0)
	t.rec.add("condor.build", "toolflow.op", i, t0, t1, 0)
	t.rec.add("aws.deploy", "toolflow.op", i, t1, t2, 0)
	t.rec.add("aws.infer", "toolflow.op", i, t2, t3, 0)
	t.rec.add("aws.terminate", "toolflow.op", i, t3, t4, 0)
	switch {
	case inferErr != nil || termErr != nil:
		return opError
	case len(outs) != 1 || !checkOutput(outs[0], t.want, condor.DefaultCosimTolerance):
		return opWrong
	}
	return opOK
}

// between replays BuildAccelerator stage by stage on the op's input, timing
// each call into a layer. It runs outside the op's timing, and it guards
// itself: the replayed xclbin and metadata must equal the ones
// Framework.BuildAccelerator produced, so a stage added to condor.go that
// the replay lacks either changes the output (caught here) or only costs
// time (caught as condor.unattributed_ms).
func (t *toolflow) between(i int) error {
	if t.last == nil {
		return fmt.Errorf("op %d built no accelerator to hold the staged replay against", i)
	}
	stage := func(name string, start time.Time) time.Time {
		now := time.Now()
		t.rec.add(name, "toolflow.replay", i, start, now, 0)
		return now
	}
	t0 := time.Now()
	topo, err := caffe.ParsePrototxt(t.in.Prototxt)
	if err != nil {
		return err
	}
	trained, err := caffe.ParseCaffeModel(t.in.CaffeModel)
	if err != nil {
		return err
	}
	topo.MergeWeights(trained)
	at := stage("caffe.parse", t0)

	ir, ws, err := condorir.FromCaffe(topo, t.in.Board, t.in.FrequencyMHz)
	if err != nil {
		return err
	}
	if err := ir.Validate(); err != nil {
		return err
	}
	if _, err := ir.BuildNN(ws); err != nil {
		return err
	}
	at = stage("condorir.lower", at)

	res, err := dse.Explore(ir, dse.Options{Precisions: []quant.Precision{t.in.Precision}})
	if err != nil {
		return err
	}
	ir = res.IR
	at = stage("dse.explore", at)

	spec, err := dataflow.BuildSpec(ir)
	if err != nil {
		return err
	}
	spec.WordBits = t.in.Precision.Bits()
	at = stage("dataflow.buildspec", at)

	if err := hls.PlanMemory(spec); err != nil {
		return err
	}
	at = stage("hls.planmemory", at)

	diags := verify.LintConfig(spec, ir, ws, verify.FabricConfig{CUs: t.in.ComputeUnits})
	if err := diag.Err(diags); err != nil {
		return err
	}
	t.diagnostics = len(diags)
	at = stage("verify.lint", at)

	xo, err := bitstream.PackageXO(spec)
	if err != nil {
		return err
	}
	xclbin, _, err := bitstream.XOCC(xo, ir.Board)
	if err != nil {
		return err
	}
	x, err := bitstream.ReadXclbin(xclbin)
	if err != nil {
		return err
	}
	stage("bitstream.package", at)

	if !bytes.Equal(xclbin, t.last.Xclbin) || x.Meta != t.last.Meta {
		return fmt.Errorf("staged replay diverged from Framework.BuildAccelerator: xclbin %d vs %d bytes, meta %+v vs %+v — condor.go has a stage the replay in benchmark/toolflow.go lacks",
			len(xclbin), len(t.last.Xclbin), x.Meta, t.last.Meta)
	}
	return nil
}

// replayStages are the spans between records, in BuildAccelerator's order.
var replayStages = []string{"caffe.parse", "condorir.lower", "dse.explore", "dataflow.buildspec",
	"hls.planmemory", "verify.lint", "bitstream.package"}

func (t *toolflow) layers(win *window, m metricSet) error {
	ops := float64(len(win.recs))
	var stages float64
	for _, name := range replayStages {
		tot := win.spans[name]
		m.set(perLayer, name+"_ms", tot.meanMs(), tot.Count)
		stages += tot.meanMs()
	}
	build, deploy, infer, term := win.spans["condor.build"], win.spans["aws.deploy"], win.spans["aws.infer"], win.spans["aws.terminate"]
	m.set(perLayer, "condor.build_ms", build.meanMs(), build.Count)
	m.set(perLayer, "aws.deploy_ms", deploy.meanMs(), deploy.Count)
	m.set(perLayer, "aws.infer_ms", infer.meanMs(), infer.Count)
	m.set(perLayer, "aws.terminate_ms", term.meanMs(), term.Count)
	m.set(perLayer, "aws.api_calls", float64(t.apiCalls)/ops, 0)
	m.set(perLayer, "aws.retries", float64(t.retries)/ops, 0)

	opMean := win.spans["toolflow.op"].meanMs()
	m.set(perLayer, "condor.unattributed_ms", opMean-stages-deploy.meanMs()-infer.meanMs()-term.meanMs(), 0)
	// The identity is asserted op by op and on the median, so that one op
	// stalled by the collector cannot fail it: what BuildAccelerator took
	// beyond the replay of its stages on the same input.
	buildMs, replayMs, opMs := map[int]float64{}, map[int]float64{}, []float64{}
	for _, sp := range win.raw {
		switch {
		case sp.Name == "condor.build":
			buildMs[sp.Op] = millis(sp.dur())
		case sp.Parent == "toolflow.replay":
			replayMs[sp.Op] += millis(sp.dur())
		case sp.Name == "toolflow.op":
			opMs = append(opMs, millis(sp.dur()))
		}
	}
	var residual []float64
	for op, b := range buildMs {
		residual = append(residual, b-replayMs[op])
	}
	if r, limit := median(residual), 0.10*median(opMs); r > limit || r < -limit {
		return fmt.Errorf("budget identity failed: BuildAccelerator takes %.3f ms more than the replay of its stages (median over %d ops), over 10 %% of the %.3f ms op — a stage is missing from the replay in benchmark/toolflow.go",
			r, len(residual), median(opMs))
	}

	m.set(perLayer, "dse.moves", float64(len(t.last.DSETrace)), 0)
	m.set(perLayer, "verify.diagnostics", float64(t.diagnostics), 0)
	m.set(perLayer, "bitstream.xclbin_bytes", float64(len(t.last.Xclbin)), 0)
	setUtilization(m, t.last)
	m.set(perLayer, "nn.ref_ms_per_img", t.refMs, 1)

	// Frontend guards: parsers no workload reaches end to end today.
	blob, err := onnx.Encode(t.net)
	if err != nil {
		return err
	}
	onnxMs, n, err := timeMedian(5, win.probe, func() error {
		model, err := onnx.Parse(blob)
		if err != nil {
			return err
		}
		_, err = model.ToNetwork()
		return err
	})
	if err != nil {
		return fmt.Errorf("onnx probe: %w", err)
	}
	m.set(perLayer, "onnx.parse_ms", onnxMs, n)

	tc1, tc1ws, err := models.TC1()
	if err != nil {
		return err
	}
	irJSON, err := tc1.ToJSON()
	if err != nil {
		return err
	}
	var wfile bytes.Buffer
	if err := tc1ws.Write(&wfile); err != nil {
		return err
	}
	jsonMs, n, err := timeMedian(5, win.probe, func() error {
		if _, err := condorir.FromJSON(irJSON); err != nil {
			return err
		}
		_, err := condorir.ReadWeights(bytes.NewReader(wfile.Bytes()))
		return err
	})
	if err != nil {
		return fmt.Errorf("condorir JSON probe: %w", err)
	}
	m.set(perLayer, "condorir.json_parse_ms", jsonMs, n)
	return nil
}

// setUtilization reports the build's synthesis estimate, the four columns
// Table 1 of the paper gives.
func setUtilization(m metricSet, b *condor.Build) {
	u := b.Report.Utilization
	m.set(perLayer, "hls.lut_pct", 100*u.LUT, 0)
	m.set(perLayer, "hls.ff_pct", 100*u.FF, 0)
	m.set(perLayer, "hls.dsp_pct", 100*u.DSP, 0)
	m.set(perLayer, "hls.bram_pct", 100*u.BRAM, 0)
}

func (t *toolflow) close() error {
	err := t.endpoint.stop()
	// Join the AFI generation workers so none outlives the endpoint.
	t.cloud.Quiesce()
	return err
}
