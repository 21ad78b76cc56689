package serve

import "condor/internal/obs"

// RegisterMetrics exposes the server's counters through an obs.Registry in
// Prometheus form under the condor_serve_* families. Every family is
// registered as a scrape-time function over Stats(), so /metricsz always
// reports the same numbers as /statsz with no second accounting path.
func RegisterMetrics(reg *obs.Registry, s *Server) {
	reg.Func("condor_serve_queue_depth", obs.TypeGauge,
		"Admitted requests waiting for a backend.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.Stats().QueueDepth)}}
		})
	reg.Func("condor_serve_queue_capacity", obs.TypeGauge,
		"Bound of the admission queue.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.cfg.QueueDepth)}}
		})
	reg.Func("condor_serve_requests_total", obs.TypeCounter,
		"Requests by final admission state.", func() []obs.Sample {
			st := s.Stats()
			state := func(name string, v uint64) obs.Sample {
				return obs.Sample{Labels: []obs.Label{obs.L("state", name)}, Value: float64(v)}
			}
			return []obs.Sample{
				state("admitted", st.Admitted),
				state("rejected", st.Rejected),
				state("completed", st.Completed),
				state("expired", st.Expired),
				state("failed", st.Failed),
			}
		})
	reg.Func("condor_serve_batches_total", obs.TypeCounter,
		"Batches dispatched to the backend pool.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.Stats().Batches)}}
		})
	reg.HistogramFunc("condor_serve_batch_size",
		"Sizes of dispatched batches.", func() []obs.HistSnapshot {
			return []obs.HistSnapshot{batchSizeSnapshot(s.Stats().BatchSizeHist, s.cfg.MaxBatch)}
		})
	reg.Func("condor_serve_latency_ms", obs.TypeGauge,
		"Request latency quantiles in milliseconds over the recent-sample reservoir.",
		func() []obs.Sample {
			st := s.Stats()
			q := func(kind, q string, v float64) obs.Sample {
				return obs.Sample{Labels: []obs.Label{obs.L("kind", kind), obs.L("q", q)}, Value: v}
			}
			return []obs.Sample{
				q("kernel", "0.5", st.KernelMsP50),
				q("kernel", "0.95", st.KernelMsP95),
				q("kernel", "0.99", st.KernelMsP99),
				q("queue", "0.5", st.QueueMsP50),
				q("queue", "0.95", st.QueueMsP95),
				q("queue", "0.99", st.QueueMsP99),
				q("total", "0.5", st.TotalMsP50),
				q("total", "0.95", st.TotalMsP95),
				q("total", "0.99", st.TotalMsP99),
			}
		})
	perBackend := func(fn func(b *BackendStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			st := s.Stats()
			out := make([]obs.Sample, len(st.Backends))
			for i := range st.Backends {
				out[i] = obs.Sample{
					Labels: []obs.Label{obs.L("backend", st.Backends[i].ID)},
					Value:  fn(&st.Backends[i]),
				}
			}
			return out
		}
	}
	reg.Func("condor_serve_backend_busy", obs.TypeGauge,
		"Whether the backend is executing a batch (0/1).",
		perBackend(func(b *BackendStats) float64 {
			if b.Busy {
				return 1
			}
			return 0
		}))
	reg.Func("condor_serve_backend_batches_total", obs.TypeCounter,
		"Batches executed per backend.",
		perBackend(func(b *BackendStats) float64 { return float64(b.Batches) }))
	reg.Func("condor_serve_backend_images_total", obs.TypeCounter,
		"Images executed per backend.",
		perBackend(func(b *BackendStats) float64 { return float64(b.Images) }))
	reg.Func("condor_serve_backend_failures_total", obs.TypeCounter,
		"Failed batches per backend.",
		perBackend(func(b *BackendStats) float64 { return float64(b.Failures) }))
	reg.Func("condor_serve_backend_utilization", obs.TypeGauge,
		"Modeled-busy milliseconds over server uptime per backend.",
		perBackend(func(b *BackendStats) float64 { return b.Utilization }))
}

// batchSizeSnapshot folds the exact per-size batch counts into a cumulative
// histogram with power-of-two bucket bounds up to the configured MaxBatch.
func batchSizeSnapshot(hist map[int]uint64, maxBatch int) obs.HistSnapshot {
	var bounds []float64
	for b := 1; b < maxBatch; b *= 2 {
		bounds = append(bounds, float64(b))
	}
	bounds = append(bounds, float64(maxBatch))
	snap := obs.HistSnapshot{Bounds: bounds, Cumul: make([]uint64, len(bounds))}
	for size, n := range hist {
		snap.Count += n
		snap.Sum += float64(size) * float64(n)
		for i, b := range bounds {
			if float64(size) <= b {
				snap.Cumul[i] += n
			}
		}
	}
	return snap
}
