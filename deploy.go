package condor

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"condor/internal/aws"
	"condor/internal/bitstream"
	"condor/internal/diag"
	"condor/internal/obs"
	"condor/internal/sdaccel"
	"condor/internal/serve"
	"condor/internal/tensor"
	"condor/internal/verify"
)

// Both deployment kinds (and each programmed F1 slot) satisfy the serving
// tier's Backend contract, so a serve.Server can pool them freely.
var (
	_ serve.Backend = (*LocalDeployment)(nil)
	_ serve.Backend = (*SlotBackend)(nil)
	_ serve.Backend = (*CUBackend)(nil)
)

// LocalDeployment is a build loaded onto an on-premise board through the
// SDAccel runtime.
type LocalDeployment struct {
	Device *sdaccel.Device
	build  *Build
}

// localDeviceSeq numbers local boards so every deployment models a distinct
// card (fpga0, fpga1, …) — a pool of local backends must not alias one
// device.
var localDeviceSeq atomic.Uint64

// DeployLocal programs the next free local device with the build's xclbin
// and loads the weights (the on-premise path of the backend tier). Each
// call claims a distinct device id.
func (f *Framework) DeployLocal(b *Build) (*LocalDeployment, error) {
	return f.DeployLocalCUs(b, 1)
}

// DeployLocalCUs deploys like DeployLocal with the device's kernel
// replicated into cus compute units: the instances share one sealed weight
// store and execute concurrently, so a single card serves up to cus kernel
// dispatches at once. Use CUBackends to schedule the units independently in
// a serving pool.
func (f *Framework) DeployLocalCUs(b *Build, cus int) (*LocalDeployment, error) {
	// The configuration-dependent fabric rules gate the deployment: a CU
	// count that overcommits the board (CND021) or a FIFO network whose
	// worst-case occupancy exceeds a declared depth (CND020) must fail here,
	// before any device is programmed.
	if err := diag.Err(verify.VerifyFabric(b.Spec, verify.FabricConfig{CUs: cus}, nil)); err != nil {
		return nil, fmt.Errorf("condor: deployment verification failed: %w", err)
	}
	f.logf("backend: programming local board %s", b.Meta.Board)
	dev, err := sdaccel.NewDevice(fmt.Sprintf("fpga%d", localDeviceSeq.Add(1)-1), b.Meta.Board)
	if err != nil {
		return nil, err
	}
	if err := dev.LoadXclbin(b.Xclbin); err != nil {
		return nil, err
	}
	if err := dev.SetComputeUnits(cus); err != nil {
		return nil, err
	}
	if err := dev.LoadWeights(b.Weights); err != nil {
		return nil, err
	}
	return &LocalDeployment{Device: dev, build: b}, nil
}

// ID identifies the deployment's device, e.g. for serving-pool stats.
func (d *LocalDeployment) ID() string { return d.Device.ID }

// Close releases the deployment's device: its compute units' sessions are
// joined and its fabric and weights dropped, and later Infer calls fail with
// sdaccel.ErrDeviceClosed. Shut down a serve.Server pooling the deployment
// first. Close is idempotent.
func (d *LocalDeployment) Close() { d.Device.Close() }

// Infer runs a batch on the local device and returns the outputs plus the
// modeled kernel time in milliseconds.
func (d *LocalDeployment) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	spec := d.build.Spec
	inVol := spec.Input.Volume()
	outShape := spec.OutputShape()
	outVol := outShape.Volume()

	ctx := sdaccel.CreateContext(d.Device)
	in := ctx.CreateBuffer(len(batch) * inVol)
	out := ctx.CreateBuffer(len(batch) * outVol)
	flat := make([]float32, 0, len(batch)*inVol)
	for i, img := range batch {
		if img.Len() != inVol {
			return nil, 0, fmt.Errorf("condor: image %d has %d words, accelerator input is %d", i, img.Len(), inVol)
		}
		flat = append(flat, img.Data()...)
	}
	ctx.EnqueueWrite(in, flat)
	ctx.EnqueueKernel(in, out, len(batch))
	results := make([]float32, len(batch)*outVol)
	ctx.EnqueueRead(out, results)
	info, err := ctx.Finish()
	if err != nil {
		return nil, 0, err
	}
	outs := make([]*tensor.Tensor, len(batch))
	for i := range outs {
		t := tensor.New(outShape.Channels, outShape.Height, outShape.Width)
		copy(t.Data(), results[i*outVol:(i+1)*outVol])
		outs[i] = t
	}
	return outs, info.KernelMs, nil
}

// CUBackend exposes one compute unit of a local deployment as an
// independently schedulable inference backend — the on-premise counterpart
// of SlotBackend. The serving scheduler keeps one batch in flight per
// backend; dispatches from different CU backends land on distinct free
// kernel instances of the card (the device's acquire path scans for an idle
// unit), so a replicated device contributes cus-way parallelism to the pool.
type CUBackend struct {
	dep *LocalDeployment
	id  string // "<device>/cu<n>": the server reads it on every batch
}

// CUBackends returns one backend per compute unit of the deployment's
// device. A single-unit device yields one backend equivalent to the
// deployment itself.
func (d *LocalDeployment) CUBackends() []*CUBackend {
	n := d.Device.ComputeUnits()
	out := make([]*CUBackend, n)
	for i := range out {
		out[i] = &CUBackend{dep: d, id: fmt.Sprintf("%s/cu%d", d.Device.ID, i)}
	}
	return out
}

// ID names the backend after its device and compute unit.
func (b *CUBackend) ID() string { return b.id }

// Infer runs one batch on the deployment's device, occupying one free
// compute unit for the duration of the kernel.
func (b *CUBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	return b.dep.Infer(batch)
}

// CloudConfig describes the AWS environment for an F1 deployment.
type CloudConfig struct {
	// Endpoint is the base URL of the AWS services (the in-process
	// simulated cloud or cmd/awsmock).
	Endpoint string
	// License is the Xilinx tool licence; use aws.LicenseFromAMI() when
	// running inside the FPGA Developer AMI. Without it AFI creation fails,
	// as the paper describes.
	License string
	// Bucket is the user-specified S3 bucket for designs, weights and data.
	Bucket string
	// InstanceType selects the F1 size (default f1.2xlarge).
	InstanceType string
	// Slots is how many FPGA slots of the instance to program with the AFI
	// (default 1). Inference batches are sharded across the programmed
	// slots, the scale-out mode the F1 offering enables.
	Slots int
	// AFITimeout bounds the wait for AFI generation (default 2 minutes).
	AFITimeout time.Duration
}

// CloudDeployment is a build deployed on an F1 instance.
type CloudDeployment struct {
	Client     *aws.Client
	Bucket     string
	AFI        *aws.AFIRecord
	InstanceID string
	Slot       int   // first programmed slot
	Slots      []int // all programmed slots; batches shard across them
	build      *Build

	// runSeq numbers inference runs so concurrent callers get disjoint S3
	// staging keys.
	runSeq atomic.Uint64

	terminated atomic.Bool
}

// DeployCloud runs the full cloud path of the backend: package the AFI
// tarball, upload it to the user's S3 bucket, start AFI generation, wait
// for availability, launch an F1 instance and load the image on slot 0.
func (f *Framework) DeployCloud(b *Build, cfg CloudConfig) (*CloudDeployment, error) {
	if cfg.Endpoint == "" || cfg.Bucket == "" {
		return nil, fmt.Errorf("condor: cloud deployment requires an endpoint and an S3 bucket")
	}
	if cfg.InstanceType == "" {
		cfg.InstanceType = "f1.2xlarge"
	}
	if cfg.AFITimeout == 0 {
		cfg.AFITimeout = 2 * time.Minute
	}
	client := aws.NewClient(cfg.Endpoint, cfg.License)

	f.logf("backend: packaging the AFI tarball")
	tarball, err := PackageAFITarball(b)
	if err != nil {
		return nil, err
	}
	// The bucket may pre-exist; only a genuinely new name is created.
	if err := client.CreateBucket(cfg.Bucket); err != nil {
		if !isBucketExists(err) {
			return nil, err
		}
	}
	designKey := "designs/" + b.Meta.Kernel + ".tar"
	f.logf("backend: uploading design to s3://%s/%s", cfg.Bucket, designKey)
	if err := client.PutObject(cfg.Bucket, designKey, tarball); err != nil {
		return nil, err
	}

	f.logf("backend: starting AFI generation")
	afi, err := client.CreateFpgaImage(b.Meta.Name, cfg.Bucket, designKey, cfg.Bucket)
	if err != nil {
		return nil, err
	}
	f.logf("backend: AFI %s (%s) pending", afi.FpgaImageID, afi.FpgaImageGlobalID)
	final, err := client.WaitForAFI(afi.FpgaImageID, cfg.AFITimeout)
	if err != nil {
		return nil, err
	}
	if final.State != aws.AFIAvailable {
		return nil, fmt.Errorf("condor: AFI generation failed: %s", final.StateReason)
	}

	f.logf("backend: launching %s and loading the AFI", cfg.InstanceType)
	inst, err := client.RunInstance(cfg.InstanceType)
	if err != nil {
		return nil, err
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Slots > inst.Slots {
		return nil, fmt.Errorf("condor: %s has %d FPGA slots, %d requested", cfg.InstanceType, inst.Slots, cfg.Slots)
	}
	slots := make([]int, cfg.Slots)
	for s := 0; s < cfg.Slots; s++ {
		if err := client.LoadFpgaImage(inst.InstanceID, s, final.FpgaImageGlobalID); err != nil {
			return nil, err
		}
		slots[s] = s
	}

	// Stage the weights next to the design so remote inference can load
	// them dynamically.
	wbytes, err := b.WeightsBytes()
	if err != nil {
		return nil, err
	}
	if err := client.PutObject(cfg.Bucket, weightsKey(b), wbytes); err != nil {
		return nil, err
	}
	return &CloudDeployment{
		Client: client, Bucket: cfg.Bucket, AFI: final,
		InstanceID: inst.InstanceID, Slot: slots[0], Slots: slots, build: b,
	}, nil
}

// PackageAFITarball wraps the build's xclbin into the AFI creation tarball.
func PackageAFITarball(b *Build) ([]byte, error) {
	return bitstream.PackageAFITarball(b.Xclbin)
}

// Infer uploads a batch to S3, runs it on the deployment's first slot and
// downloads the outputs, returning them with the modeled kernel
// milliseconds. Concurrent calls stage under disjoint S3 keys.
func (d *CloudDeployment) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	return d.inferOnSlot(d.Slot, fmt.Sprintf("runs/run%d", d.runSeq.Add(1)), batch)
}

// ID identifies the deployment's primary slot in a serving pool; use
// SlotBackends to schedule every programmed slot independently.
func (d *CloudDeployment) ID() string {
	return fmt.Sprintf("%s/slot%d", d.InstanceID, d.Slot)
}

// SlotBackend exposes one programmed F1 slot as an independently
// schedulable inference backend: the unit of parallelism the serving tier's
// scheduler dispatches batches to. Each backend stages its runs under its
// own S3 keys, so different slots of one instance execute concurrently
// without colliding.
type SlotBackend struct {
	dep  *CloudDeployment
	slot int
	id   string // "<instance>/slot<n>": the server reads it on every batch
}

// SlotBackends returns one backend per programmed slot of the instance.
func (d *CloudDeployment) SlotBackends() []*SlotBackend {
	slots := d.Slots
	if len(slots) == 0 {
		slots = []int{d.Slot}
	}
	out := make([]*SlotBackend, len(slots))
	for i, s := range slots {
		out[i] = &SlotBackend{dep: d, slot: s, id: fmt.Sprintf("%s/slot%d", d.InstanceID, s)}
	}
	return out
}

// ID names the backend after its instance and slot.
func (b *SlotBackend) ID() string { return b.id }

// Infer runs one batch on this slot.
func (b *SlotBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	prefix := fmt.Sprintf("runs/slot%d/run%d", b.slot, b.dep.runSeq.Add(1))
	return b.dep.inferOnSlot(b.slot, prefix, batch)
}

// InferSharded splits a batch across every programmed slot of the instance
// and runs the shards concurrently, returning outputs in input order and
// the wall kernel time (the slowest shard). With n slots the steady-state
// throughput scales by ≈n — the scale-out mode the F1 instances enable.
func (d *CloudDeployment) InferSharded(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	slots := d.Slots
	if len(slots) == 0 {
		slots = []int{d.Slot}
	}
	if len(slots) == 1 || len(batch) <= 1 {
		return d.Infer(batch)
	}
	n := len(slots)
	if n > len(batch) {
		n = len(batch)
	}
	type shardResult struct {
		idx  int
		outs []*tensor.Tensor
		ms   float64
		err  error
	}
	// Contiguous shards preserve output ordering on reassembly; every shard
	// of this run stages under a run-unique key prefix.
	run := d.runSeq.Add(1)
	per := (len(batch) + n - 1) / n
	results := make(chan shardResult, n)
	shards := 0
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			break
		}
		shards++
		go func(idx, slot int, prefix string, part []*tensor.Tensor) {
			outs, ms, err := d.inferOnSlot(slot, prefix, part)
			results <- shardResult{idx: idx, outs: outs, ms: ms, err: err}
		}(i, slots[i], fmt.Sprintf("runs/run%d/shard%d", run, i), batch[lo:hi])
	}
	outs := make([]*tensor.Tensor, len(batch))
	var maxMs float64
	var firstErr error
	for i := 0; i < shards; i++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
			continue
		}
		if r.err == nil {
			copy(outs[r.idx*per:], r.outs)
			if r.ms > maxMs {
				maxMs = r.ms
			}
		}
	}
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return outs, maxMs, nil
}

// inferOnSlot runs one batch against a specific slot, staging input and
// output under the given S3 key prefix; callers pass disjoint prefixes so
// concurrent runs (shards of one batch, or scheduler dispatches to
// different slots) do not collide.
func (d *CloudDeployment) inferOnSlot(slot int, keyPrefix string, batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	spec := d.build.Spec
	inVol := spec.Input.Volume()
	outShape := spec.OutputShape()
	outVol := outShape.Volume()
	flat := make([]float32, 0, len(batch)*inVol)
	for i, img := range batch {
		if img.Len() != inVol {
			return nil, 0, fmt.Errorf("condor: image %d has %d words, accelerator input is %d", i, img.Len(), inVol)
		}
		flat = append(flat, img.Data()...)
	}
	inKey := keyPrefix + "/input.bin"
	outKey := keyPrefix + "/output.bin"
	if err := d.Client.PutObject(d.Bucket, inKey, aws.EncodeBatch(flat)); err != nil {
		return nil, 0, err
	}
	res, err := d.Client.ExecuteInference(aws.InferenceJob{
		InstanceID: d.InstanceID, Slot: slot,
		Weights: aws.ObjectRef{Bucket: d.Bucket, Key: weightsKey(d.build)},
		Input:   aws.ObjectRef{Bucket: d.Bucket, Key: inKey},
		Output:  aws.ObjectRef{Bucket: d.Bucket, Key: outKey},
		Batch:   len(batch),
	})
	if err != nil {
		return nil, 0, err
	}
	outBytes, err := d.Client.GetObject(d.Bucket, outKey)
	if err != nil {
		return nil, 0, err
	}
	vals, err := aws.DecodeBatch(outBytes)
	if err != nil {
		return nil, 0, err
	}
	if len(vals) != len(batch)*outVol {
		return nil, 0, fmt.Errorf("condor: slot %d output under %s has %d words, want %d", slot, keyPrefix, len(vals), len(batch)*outVol)
	}
	outs := make([]*tensor.Tensor, len(batch))
	for i := range outs {
		t := tensor.New(outShape.Channels, outShape.Height, outShape.Width)
		copy(t.Data(), vals[i*outVol:(i+1)*outVol])
		outs[i] = t
	}
	return outs, res.KernelMs, nil
}

// Terminate shuts the F1 instance down, which frees its slots: the devices
// close and their fabrics and weights are released. Later inference calls
// fail with IncorrectInstanceState. A second Terminate returns nil without
// another API call.
func (d *CloudDeployment) Terminate() error {
	if d.terminated.Load() {
		return nil
	}
	if err := d.Client.TerminateInstance(d.InstanceID); err != nil {
		return err
	}
	d.terminated.Store(true)
	return nil
}

// RegisterMetrics exposes the deployment's device execution counters under
// the condor_sdaccel_* families. For pools with several deployments use
// RegisterDeploymentMetrics, which registers each family once.
func (d *LocalDeployment) RegisterMetrics(reg *obs.Registry) {
	sdaccel.RegisterMetrics(reg, d.Device)
}

// RegisterMetrics exposes the deployment's cloud-client retry accounting
// under the condor_aws_* families. For pools with several deployments use
// RegisterDeploymentMetrics, which registers each family once.
func (d *CloudDeployment) RegisterMetrics(reg *obs.Registry) {
	aws.RegisterMetrics(reg, d.Client)
}

// RegisterDeploymentMetrics wires a whole serving pool's backend
// observability into reg: the execution counters of every distinct local
// device (condor_sdaccel_*) and the aggregate retry accounting of every
// distinct cloud client (condor_aws_*). Backends of other types are ignored.
func RegisterDeploymentMetrics(reg *obs.Registry, backends ...serve.Backend) {
	var devs []*sdaccel.Device
	seenDev := map[*sdaccel.Device]bool{}
	var clients []*aws.Client
	seenCli := map[*aws.Client]bool{}
	addClient := func(d *CloudDeployment) {
		if d != nil && d.Client != nil && !seenCli[d.Client] {
			seenCli[d.Client] = true
			clients = append(clients, d.Client)
		}
	}
	for _, b := range backends {
		switch x := b.(type) {
		case *LocalDeployment:
			if x.Device != nil && !seenDev[x.Device] {
				seenDev[x.Device] = true
				devs = append(devs, x.Device)
			}
		case *CUBackend:
			if x.dep != nil && x.dep.Device != nil && !seenDev[x.dep.Device] {
				seenDev[x.dep.Device] = true
				devs = append(devs, x.dep.Device)
			}
		case *CloudDeployment:
			addClient(x)
		case *SlotBackend:
			addClient(x.dep)
		}
	}
	if len(devs) > 0 {
		sdaccel.RegisterMetrics(reg, devs...)
	}
	if len(clients) > 0 {
		aws.RegisterMetrics(reg, clients...)
	}
}

func weightsKey(b *Build) string { return "weights/" + b.Meta.Kernel + ".cndw" }

func isBucketExists(err error) bool {
	return err != nil && strings.Contains(err.Error(), "BucketAlreadyExists")
}
