// Command condor is the framework driver: it turns a trained CNN (a Caffe
// prototxt+caffemodel pair or the Condor JSON representation plus a weights
// file) into a packaged FPGA accelerator, and deploys it on-premise or on
// the AWS F1 instances.
//
// Usage:
//
//	condor build   -prototxt net.prototxt -caffemodel net.caffemodel -board aws-f1-vu9p -freq 180 -out build/
//	condor build   -network net.json -weights net.cndw [-dse] -out build/
//	condor info    -xclbin build/net.xclbin
//	condor deploy  -xclbin build/net.xclbin -weights build/net.cndw \
//	               -endpoint http://127.0.0.1:8780 -bucket my-bucket [-ami]
//	condor boards
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"condor"
	"condor/internal/aws"
	"condor/internal/bitstream"
	"condor/internal/board"
	"condor/internal/condorir"
	"condor/internal/diag"
	"condor/internal/hls"
	"condor/internal/models"
	"condor/internal/quant"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "deploy":
		err = cmdDeploy(os.Args[2:])
	case "cosim":
		err = cmdCosim(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "boards":
		err = cmdBoards()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "condor: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "condor:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `condor — CNN-to-FPGA dataflow framework (IPDPSW'18 reproduction)

commands:
  build    generate the accelerator from a Caffe model or Condor JSON
  info     inspect a compiled xclbin
  deploy   deploy an F1 build to the (simulated) AWS cloud
  cosim    co-simulate a build against the reference CNN engine
  lint     run the pre-synthesis design verifier on a network
  boards   list supported deployment targets`)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	prototxt := fs.String("prototxt", "", "Caffe network description")
	caffemodel := fs.String("caffemodel", "", "Caffe trained model (binary)")
	onnxPath := fs.String("onnx", "", "ONNX model (binary)")
	network := fs.String("network", "", "Condor network representation (JSON)")
	weights := fs.String("weights", "", "Condor weights file (.cndw)")
	boardID := fs.String("board", "", "deployment board (see 'condor boards')")
	freq := fs.Float64("freq", 0, "requested kernel clock in MHz")
	runDSE := fs.Bool("dse", false, "run automated design-space exploration")
	precision := fs.String("precision", "float32", "fabric numeric format: float32 | int8")
	emitHLS := fs.Bool("hls-project", false, "also emit the generated Vivado HLS project (sources + Tcl)")
	outDir := fs.String("out", "build", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := condor.Input{Board: *boardID, FrequencyMHz: *freq, RunDSE: *runDSE}
	p, err := quant.ParsePrecision(*precision)
	if err != nil {
		return err
	}
	in.Precision = p
	switch {
	case *prototxt != "":
		src, err := os.ReadFile(*prototxt)
		if err != nil {
			return err
		}
		in.Prototxt = string(src)
		if *caffemodel == "" {
			return fmt.Errorf("the Caffe input method requires -caffemodel")
		}
		blob, err := os.ReadFile(*caffemodel)
		if err != nil {
			return err
		}
		in.CaffeModel = blob
	case *onnxPath != "":
		blob, err := os.ReadFile(*onnxPath)
		if err != nil {
			return err
		}
		in.ONNXModel = blob
	case *network != "":
		js, err := os.ReadFile(*network)
		if err != nil {
			return err
		}
		in.NetworkJSON = js
		if *weights == "" {
			return fmt.Errorf("the Condor input method requires -weights")
		}
		wf, err := os.Open(*weights)
		if err != nil {
			return err
		}
		defer wf.Close()
		in.WeightsFile = wf
	default:
		return fmt.Errorf("provide -prototxt/-caffemodel, -onnx, or -network/-weights")
	}

	f := &condor.Framework{Logf: func(format string, a ...any) {
		fmt.Printf("  "+format+"\n", a...)
	}}
	b, err := f.BuildAccelerator(in)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if err := writeArtifacts(os.Stdout, b, filepath.Join(*outDir, b.Meta.Name)); err != nil {
		return err
	}
	if *emitHLS {
		proj, err := hls.GenerateProject(b.Spec)
		if err != nil {
			return err
		}
		hlsDir := filepath.Join(*outDir, "hls")
		if err := proj.WriteTo(hlsDir); err != nil {
			return err
		}
		fmt.Printf("wrote HLS project (%d files) to %s\n", len(proj.Files), hlsDir)
	}
	s, err := b.Performance()
	if err != nil {
		return err
	}
	u := b.Report.Utilization
	fmt.Printf("\n%s on %s: %.0f MHz (requested %.0f)\n", b.Meta.Name, b.Meta.Board, b.Meta.AchievedMHz, b.Meta.RequestedMHz)
	fmt.Printf("  LUT %.2f%%  FF %.2f%%  DSP %.2f%%  BRAM %.2f%%\n", 100*u.LUT, 100*u.FF, 100*u.DSP, 100*u.BRAM)
	fmt.Printf("  %.2f GFLOPS  %.2f GFLOPS/W  latency %.3f ms/image\n", s.GFLOPS, s.GFLOPSPerWatt, s.LatencyMs)
	return nil
}

// writeArtifacts writes the build's files next to base (base.xo,
// base.xclbin, …) in sorted path order, printing a "wrote" line for each to
// w, so two runs print the same lines.
func writeArtifacts(w io.Writer, b *condor.Build, base string) error {
	wbytes, err := b.WeightsBytes()
	if err != nil {
		return err
	}
	irJSON, err := b.IR.ToJSON()
	if err != nil {
		return err
	}
	files := []struct {
		path string
		data []byte
	}{
		{base + ".xo", b.XO},
		{base + ".xclbin", b.Xclbin},
		{base + ".cndw", wbytes},
		{base + "_host.c", []byte(b.HostCode)},
		{base + ".json", irJSON},
	}
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	for _, f := range files {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", f.path)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("xclbin", "", "compiled kernel binary")
	dotPath := fs.String("dot", "", "write the accelerator netlist as Graphviz to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-xclbin is required")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	x, err := bitstream.ReadXclbin(data)
	if err != nil {
		return err
	}
	fmt.Printf("name:      %s\nkernel:    %s\nboard:     %s (%s)\n",
		x.Meta.Name, x.Meta.Kernel, x.Meta.Board, x.Meta.Part)
	fmt.Printf("clock:     %.0f MHz achieved (%.0f requested)\n", x.Meta.AchievedMHz, x.Meta.RequestedMHz)
	u := x.Meta.Utilization
	fmt.Printf("resources: LUT %.2f%%  FF %.2f%%  DSP %.2f%%  BRAM %.2f%%\n",
		100*u.LUT, 100*u.FF, 100*u.DSP, 100*u.BRAM)
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(x.Spec.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote netlist to", *dotPath)
	}
	fmt.Printf("PEs:       %d\n", len(x.Spec.PEs))
	for _, pe := range x.Spec.PEs {
		names := ""
		for i, l := range pe.Layers {
			if i > 0 {
				names += "+"
			}
			names += l.Name
		}
		fmt.Printf("  %-6s %-24s in=%d out=%d\n", pe.ID, names, pe.Par.In, pe.Par.Out)
	}
	return nil
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	xclbinPath := fs.String("xclbin", "", "compiled F1 kernel binary")
	weightsPath := fs.String("weights", "", "Condor weights file (.cndw)")
	networkPath := fs.String("network", "", "Condor network representation (JSON)")
	endpoint := fs.String("endpoint", "", "AWS endpoint (e.g. awsmock URL)")
	bucket := fs.String("bucket", "", "S3 bucket for the design")
	ami := fs.Bool("ami", true, "run as if inside the FPGA Developer AMI (provides tool licences)")
	instanceType := fs.String("instance-type", "f1.2xlarge", "F1 instance size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *xclbinPath == "" || *weightsPath == "" || *networkPath == "" {
		return fmt.Errorf("-xclbin, -weights and -network are required")
	}
	xclbin, err := os.ReadFile(*xclbinPath)
	if err != nil {
		return err
	}
	x, err := bitstream.ReadXclbin(xclbin)
	if err != nil {
		return err
	}
	wf, err := os.Open(*weightsPath)
	if err != nil {
		return err
	}
	ws, err := condorir.ReadWeights(wf)
	wf.Close()
	if err != nil {
		return err
	}
	js, err := os.ReadFile(*networkPath)
	if err != nil {
		return err
	}
	ir, err := condorir.FromJSON(js)
	if err != nil {
		return err
	}
	license := ""
	if *ami {
		license = aws.LicenseFromAMI()
	}
	f := &condor.Framework{Logf: func(format string, a ...any) {
		fmt.Printf("  "+format+"\n", a...)
	}}
	b := &condor.Build{IR: ir, Weights: ws, Spec: x.Spec, Xclbin: xclbin, Meta: x.Meta}
	dep, err := f.DeployCloud(b, condor.CloudConfig{
		Endpoint: *endpoint, License: license, Bucket: *bucket, InstanceType: *instanceType,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nAFI:      %s (%s), state %s\n", dep.AFI.FpgaImageID, dep.AFI.FpgaImageGlobalID, dep.AFI.State)
	fmt.Printf("instance: %s, slot %d loaded\n", dep.InstanceID, dep.Slot)
	fmt.Printf("weights:  s3://%s\n", dep.Bucket)
	return nil
}

func cmdCosim(args []string) error {
	fs := flag.NewFlagSet("cosim", flag.ExitOnError)
	network := fs.String("network", "", "Condor network representation (JSON)")
	weights := fs.String("weights", "", "Condor weights file (.cndw)")
	n := fs.Int("n", 8, "number of random test vectors")
	seed := fs.Int64("seed", 1, "test-vector seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *network == "" || *weights == "" {
		return fmt.Errorf("-network and -weights are required")
	}
	js, err := os.ReadFile(*network)
	if err != nil {
		return err
	}
	wf, err := os.Open(*weights)
	if err != nil {
		return err
	}
	defer wf.Close()
	b, err := condor.New().BuildAccelerator(condor.Input{NetworkJSON: js, WeightsFile: wf})
	if err != nil {
		return err
	}
	rep, err := b.Cosim(*n, *seed, 0)
	if err != nil {
		return err
	}
	fmt.Printf("co-simulation of %s: %d vectors\n", b.Meta.Name, rep.Images)
	fmt.Printf("  max |fabric - reference| = %.3g (tolerance %.3g)\n", rep.MaxAbsDiff, rep.Tolerance)
	fmt.Printf("  argmax agreement %.0f%%, cycle model %d vs measured %d\n",
		100*rep.ArgMaxAgreement, rep.ModelCycles, rep.MeasuredCycles)
	if !rep.Passed() {
		return fmt.Errorf("co-simulation FAILED (%d mismatches)", rep.Mismatches)
	}
	fmt.Println("  PASSED")
	return nil
}

// cmdLint runs the design verifier without building anything: it prints
// every diagnostic like a compiler error and fails when any error-severity
// rule fires. Networks come either from a Condor JSON file (with optional
// weights for the weight-consistency rules) or from the built-in evaluation
// models by name. The configuration flags (-cus, -burst, -fifo-depth,
// -batch) describe the deployment to prove: the fabric rules
// CND020–CND022 statically reject a configuration whose worst-case FIFO
// occupancy exceeds a declared depth or whose replicated compute units
// overcommit the board, and -batch adds the CND024 continuous-streaming
// bound (two in-flight epochs per FIFO). -algo proves a per-layer
// convolution-algorithm deployment: CND025 rejects winograd_f23 on layers
// its F(2,3) tiling cannot cover.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	network := fs.String("network", "", "Condor network representation (JSON)")
	weights := fs.String("weights", "", "Condor weights file (.cndw), optional")
	model := fs.String("model", "", "built-in model: tc1 | lenet | vgg16 | vgg16-features | alexnet | alexnet-features")
	cus := fs.Int("cus", 1, "compute units the deployment replicates the kernel into")
	burst := fs.Int("burst", 0, "DMA burst transaction length in words (0 = host-chunked)")
	fifoDepth := fs.Int("fifo-depth", 0, "inter-PE stream FIFO depth override in words (0 = default)")
	precision := fs.String("precision", "float32", "fabric numeric format to prove: float32 | int8")
	strictLanes := fs.Bool("strict-lanes", false, "reject padded tail lanes (CND023 becomes an error) on the packed int8 datapath")
	algo := fs.String("algo", "", "convolution algorithm override for every conv layer: direct | im2col_gemm | winograd_f23 (CND025 rejects non-qualifying layers)")
	batchStream := fs.Bool("batch", false, "prove the continuous-streaming deployment (CND024: two in-flight epochs must fit every FIFO)")
	quiet := fs.Bool("q", false, "suppress the success line")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ir *condorir.Network
	var ws *condorir.WeightSet
	switch {
	case *network != "":
		js, err := os.ReadFile(*network)
		if err != nil {
			return err
		}
		ir, err = condorir.FromJSON(js)
		if err != nil {
			return err
		}
		if *weights != "" {
			wf, err := os.Open(*weights)
			if err != nil {
				return err
			}
			ws, err = condorir.ReadWeights(wf)
			wf.Close()
			if err != nil {
				return err
			}
		}
	case *model != "":
		var err error
		ir, ws, err = builtinModel(*model)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("provide -network (optionally with -weights) or -model")
	}

	p, err := quant.ParsePrecision(*precision)
	if err != nil {
		return err
	}
	diags, err := condor.New().LintWith(ir, ws, condor.LintOptions{
		ComputeUnits:     *cus,
		BurstWords:       *burst,
		InterPEFIFODepth: *fifoDepth,
		Precision:        p,
		StrictLanes:      *strictLanes,
		BatchStreaming:   *batchStream,
		Algo:             *algo,
	})
	if err != nil {
		return err
	}
	errors := 0
	for _, d := range diags {
		fmt.Println(d)
		if d.Severity == diag.Error {
			errors++
		}
	}
	if errors > 0 {
		return fmt.Errorf("%s: %d design error(s)", ir.Name, errors)
	}
	if !*quiet {
		for _, l := range ir.Layers {
			if l.Type != "Convolution" {
				continue
			}
			a := l.Algorithm
			if *algo != "" {
				a = *algo
			}
			if a == "" {
				a = "direct"
			}
			fmt.Printf("%s: conv layer %s: algorithm %s\n", ir.Name, l.Name, a)
		}
		fmt.Printf("%s: design verification passed (%d warning(s))\n", ir.Name, len(diags))
	}
	return nil
}

// builtinModel resolves the -model names to the evaluation networks.
func builtinModel(name string) (*condorir.Network, *condorir.WeightSet, error) {
	switch name {
	case "tc1":
		return models.TC1()
	case "lenet":
		return models.LeNet()
	case "vgg16":
		return models.VGG16(), nil, nil
	case "vgg16-features":
		return models.VGG16Features(), nil, nil
	case "alexnet":
		return models.AlexNet(), nil, nil
	case "alexnet-features":
		return models.AlexNetFeatures(), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown model %q (tc1, lenet, vgg16, vgg16-features, alexnet, alexnet-features)", name)
	}
}

func cmdBoards() error {
	for _, id := range board.IDs() {
		b, err := board.Lookup(id)
		if err != nil {
			return err
		}
		kind := "local"
		if b.CloudOnly {
			kind = "cloud (AFI flow)"
		}
		fmt.Printf("%-12s %-40s %s\n", b.ID, b.Name, kind)
	}
	return nil
}
