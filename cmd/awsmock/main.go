// Command awsmock serves the simulated AWS endpoint (S3, the AFI pipeline
// and F1 instances) over HTTP, so the condor CLI and the examples can run
// the full cloud deployment flow against a local process.
//
// Usage:
//
//	awsmock -addr 127.0.0.1:8780 -afi-delay 2s -fail-rate 0.1
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"condor/internal/aws"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8780", "listen address")
	afiDelay := flag.Duration("afi-delay", 2*time.Second, "simulated AFI generation time")
	failRate := flag.Float64("fail-rate", 0, "fraction of requests that fail with a transient 503 (exercises client retries)")
	failSeed := flag.Int64("fail-seed", 0, "seed of the fault-injection RNG (0 = fixed default)")
	flag.Parse()

	srv := aws.NewServer(aws.Options{
		AFIGenerationDelay: *afiDelay,
		TransientErrorRate: *failRate,
		TransientErrorSeed: *failSeed,
	})
	fmt.Printf("awsmock: S3 at http://%s/s3/, API at http://%s/api, slot host programs at http://%s/infer\n", *addr, *addr, *addr)
	fmt.Printf("awsmock: AFI generation delay %v; licence token %q\n", *afiDelay, aws.DefaultLicense)
	if *failRate > 0 {
		fmt.Printf("awsmock: injecting transient 503s on %.0f%% of requests\n", 100**failRate)
	}
	if err := http.ListenAndServe(*addr, srv); err != nil {
		fmt.Fprintln(os.Stderr, "awsmock:", err)
		os.Exit(1)
	}
}
