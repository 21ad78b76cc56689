// Command condor-loadgen is the open-loop load generator for the fleet
// tier: it offers requests to a condor-fleet router (or a single
// condor-serve node) at a configured arrival rate, stamps priority classes
// and deadlines, and reports the latency CDF, goodput-vs-offered-load and
// the shed/error breakdown as a text table and optional JSON.
//
// One run at a fixed offered load:
//
//	condor-loadgen -target http://127.0.0.1:8790 -rate 200 -duration 10s \
//	    -deadline-ms 100 -high-frac 0.25
//
// Sweep offered load to trace the goodput curve, one JSON report per rate:
//
//	condor-loadgen -target http://127.0.0.1:8790 -rates 50,100,200,400 \
//	    -duration 5s -json sweep.json
//
// The generator learns the fleet's input geometry from GET /healthz and
// exits non-zero if any run loses a request to an unclassified outcome
// (the zero-silent-drop gate CI leans on).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"condor/internal/loadgen"
	"condor/internal/serve"
)

func main() {
	var (
		target     = flag.String("target", "http://127.0.0.1:8790", "router or node base URL")
		rate       = flag.Float64("rate", 100, "offered load in req/s")
		rates      = flag.String("rates", "", "comma-separated req/s sweep (overrides -rate)")
		duration   = flag.Duration("duration", 10*time.Second, "arrival window per run")
		arrival    = flag.String("arrival", loadgen.ArrivalPoisson, "arrival process: poisson | fixed")
		deadlineMs = flag.Float64("deadline-ms", 0, "per-request deadline in ms (0 disables)")
		highFrac   = flag.Float64("high-frac", 1.0, "fraction of requests sent high-priority")
		model      = flag.String("model", "", "X-Condor-Model routing key (empty uses the router default)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout when no deadline applies")
		seed       = flag.Int64("seed", 1, "arrival-process RNG seed")
		jsonPath   = flag.String("json", "", "write the report JSON here ('-' for stdout)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	body, err := probeBody(ctx, *target)
	if err != nil {
		fatalf("probe %s/healthz: %v", *target, err)
	}

	points := []float64{*rate}
	if *rates != "" {
		points = points[:0]
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				fatalf("bad -rates entry %q", f)
			}
			points = append(points, v)
		}
	}

	var runs []*loadgen.Report
	failed := false
	for _, rps := range points {
		rep, err := loadgen.Run(ctx, loadgen.Config{
			TargetURL:    *target,
			RateRPS:      rps,
			Duration:     *duration,
			Arrival:      *arrival,
			Body:         body,
			DeadlineMs:   *deadlineMs,
			HighFraction: *highFrac,
			Model:        *model,
			Timeout:      *timeout,
			Seed:         *seed,
		})
		if rep != nil {
			rep.WriteTable(os.Stdout)
			fmt.Println()
			runs = append(runs, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "condor-loadgen: %v\n", err)
			failed = true
		}
		if ctx.Err() != nil {
			break
		}
	}
	if len(runs) == 0 {
		fatalf("no runs completed")
	}

	if *jsonPath != "" {
		var doc any = runs[0]
		if len(runs) > 1 {
			doc = loadgen.Sweep{Kind: loadgen.SweepKind, Runs: runs}
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("marshal report: %v", err)
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatalf("write %s: %v", *jsonPath, err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// probeBody fetches the target's /healthz and builds a zero-filled image of
// the advertised input shape.
func probeBody(ctx context.Context, target string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s (is the fleet registered and ready?)", resp.Status)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	vol := h.Input.Volume()
	if vol <= 0 {
		return nil, fmt.Errorf("target reports empty input shape %+v", h.Input)
	}
	return json.Marshal(serve.InferRequest{Image: make([]float32, vol)})
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "condor-loadgen: "+format+"\n", a...)
	os.Exit(1)
}
