package tafloc_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tafloc"
	"tafloc/client"
)

// Benchmarks regenerating the paper's evaluation. Each Benchmark*
// corresponds to one figure or in-text table; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record. The figure
// benches measure the wall-clock of one full harness run (deployment,
// surveys, reconstruction, evaluation), which is the relevant cost for a
// user regenerating the results.

func benchConfig() tafloc.ExperimentConfig {
	cfg := tafloc.DefaultExperimentConfig()
	cfg.TestTargets = 30
	cfg.LiveWindow = 6
	return cfg
}

// BenchmarkFig1MatrixProperties regenerates Fig 1's matrix-structure
// characterization (singular spectrum, distorted share).
func BenchmarkFig1MatrixProperties(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.Fig1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ReconstructionError regenerates Fig 3: fingerprint
// reconstruction error CDFs at 3 d / 15 d / 45 d / 3 months.
func BenchmarkFig3ReconstructionError(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4UpdateTimeCost regenerates Fig 4: update time cost vs
// area size, 6-36 m edges.
func BenchmarkFig4UpdateTimeCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5LocalizationComparison regenerates Fig 5: the four-system
// localization comparison at 3 months.
func BenchmarkFig5LocalizationComparison(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriftCalibration regenerates the in-text drift table
// (2.5 dBm @ 5 d, 6 dBm @ 45 d).
func BenchmarkDriftCalibration(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.DriftTable(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostTable regenerates the in-text 6 m x 6 m cost arithmetic
// (2.78 h vs 0.28 h).
func BenchmarkCostTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.CostTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDesignChoices regenerates the LoLi-IR design-choice
// ablation (term drops, reference and rank sweeps).
func BenchmarkAblationDesignChoices(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Component micro-benchmarks ----

// BenchmarkLoLiIRReconstruction measures one LoLi-IR update on the paper
// deployment: the latency of TafLoc's fingerprint refresh.
func BenchmarkLoLiIRReconstruction(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	refCols, _ := dep.SurveyCells(sys.References(), 45)
	vacant := dep.VacantCapture(45, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Update(refCols, vacant); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocate measures one localization against the paper database.
func BenchmarkLocate(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	y := dep.Channel.MeasureLive(tafloc.Point{X: 3.3, Y: 2.1}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Locate(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceSelection measures rank-revealing-QR reference
// selection on the paper fingerprint matrix.
func BenchmarkReferenceSelection(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := dep.Channel.TrueFingerprint(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tafloc.SelectReferences(x, tafloc.DefaultReferenceOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTILocate measures one RTI imaging localization.
func BenchmarkRTILocate(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	im, err := tafloc.NewRTIImager(dep.Channel.Links(), dep.Grid, tafloc.DefaultRTIOptions())
	if err != nil {
		b.Fatal(err)
	}
	vac := dep.Channel.TrueVacant(0)
	y := dep.Channel.MeasureLive(tafloc.Point{X: 3.3, Y: 2.1}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.Locate(vac, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRASSLocate measures one RASS localization.
func BenchmarkRASSLocate(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	vac := dep.Channel.TrueVacant(0)
	tr, err := tafloc.NewRASSTracker(dep.Channel.TrueFingerprint(0), vac, dep.Grid, tafloc.DefaultRASSOptions())
	if err != nil {
		b.Fatal(err)
	}
	y := dep.Channel.MeasureLive(tafloc.Point{X: 3.3, Y: 2.1}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Locate(y, vac); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSurvey measures the simulated day-0 survey (the expensive
// pass TafLoc amortizes).
func BenchmarkFullSurvey(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Survey(0)
	}
}

// ---- Serving-layer and parallelism benchmarks ----

// BenchmarkParallelReconstruct measures one LoLi-IR update on a 12 m x
// 12 m deployment (400 cells, 17 links) with the parallel kernels forced
// serial vs GOMAXPROCS-sized. The two sub-benchmarks compute bitwise
// identical results; the ratio of their ns/op is the fan-out speedup.
func BenchmarkParallelReconstruct(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.SquareConfig(12))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	refCols, _ := dep.SurveyCells(sys.References(), 45)
	vacant := dep.VacantCapture(45, 100)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prev := tafloc.SetWorkers(bc.workers)
			defer tafloc.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				if _, err := sys.Update(refCols, vacant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotRestore pins the point of the persistence layer: a
// warm start from a snapshot versus recalibrating the deployment from
// scratch. The "recalibrate" sub-benchmark pays the full day-0 pipeline
// (survey, mask learning, reference selection, system construction); the
// "restore" sub-benchmark decodes the versioned snapshot and rebuilds an
// identical serving zone from it. The ratio of their ns/op is how much
// faster a deploy or crash recovery gets with -state-dir.
func BenchmarkSnapshotRestore(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	buildZone := func() *tafloc.System {
		sys, err := tafloc.OpenDeployment(dep)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	seed, err := tafloc.NewService()
	if err != nil {
		b.Fatal(err)
	}
	if err := seed.AddZone("z", buildZone()); err != nil {
		b.Fatal(err)
	}
	snapshot, err := seed.SnapshotZone("z")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("recalibrate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc, err := tafloc.NewService()
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.AddZone("z", buildZone()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.SetBytes(int64(len(snapshot)))
		for i := 0; i < b.N; i++ {
			svc, err := tafloc.NewService()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.RestoreZone(snapshot); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamIngest pins the point of the streaming ingest
// redesign: reports/sec over a real localhost HTTP connection, one
// zone, one producer. The "request" sub-benchmark pays one POST
// /v2/report round trip per batch (the pre-v2.1 client pattern); the
// "stream" sub-benchmark writes the same batches as NDJSON lines down
// one persistent reports:stream connection with pipelined acks. The
// ratio of their reports/s is what the persistent-stream architecture
// buys at the transport layer.
func BenchmarkStreamIngest(b *testing.B) {
	cfg := tafloc.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := tafloc.NewService(
		tafloc.WithWindow(4),
		tafloc.WithZoneQueue(1<<16),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.AddZone("z", sys); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cli, err := client.New(srv.URL, client.WithHTTPClient(&http.Client{}))
	if err != nil {
		b.Fatal(err)
	}

	const preparedBatches = 32
	var batches [][]client.Report
	for k := 0; k < preparedBatches; k++ {
		p := tafloc.Point{X: 0.3 + 3.0*float64(k)/preparedBatches, Y: 0.3 + 1.8*float64(k%7)/7}
		y := dep.Channel.MeasureLive(p, 0)
		batch := make([]client.Report, len(y))
		for i, v := range y {
			batch[i] = client.Report{Link: i, RSS: v}
		}
		batches = append(batches, batch)
	}
	reportsPerBatch := len(batches[0])

	b.Run("request", func(b *testing.B) {
		sent := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := cli.Report(ctx, "z", batches[i%preparedBatches])
			if err != nil {
				b.Fatal(err)
			}
			sent += n
		}
		b.StopTimer()
		b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "reports/s")
	})

	b.Run("stream", func(b *testing.B) {
		st, err := cli.ReportStream(ctx, "z")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Send(batches[i%preparedBatches]); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sum, err := st.Close()
		if err != nil {
			b.Fatal(err)
		}
		if got := sum.Accepted + sum.Shed; got != uint64(b.N*reportsPerBatch) {
			b.Fatalf("trailer covers %d reports, want %d", got, b.N*reportsPerBatch)
		}
		b.ReportMetric(float64(b.N*reportsPerBatch)/b.Elapsed().Seconds(), "reports/s")
	})
}

// BenchmarkLocateParallel pins the point of the Model split: locate
// throughput against ONE shared immutable Model from 1, 4, and
// GOMAXPROCS concurrent workers, each with its own reused Scratch. The
// read plane is an atomic pointer load plus lock-free matching into
// pooled buffers, so throughput should scale near-linearly with the
// worker count (the acceptance bar is >=2x at 4 workers vs 1).
func BenchmarkLocateParallel(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.SquareConfig(12))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	model := sys.Model()
	ys := locateProbes(dep)
	probes := len(ys)
	workerSet := []int{1, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 4 {
		workerSet = append(workerSet, gmp)
	}
	for _, workers := range workerSet {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var wg sync.WaitGroup
			var next atomic.Int64
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sc := tafloc.NewScratch()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						if _, err := model.Locate(ys[(i+w)%probes], sc); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "locates/s")
		})
	}
}

// locateProbes returns noise-free live vectors for 16 fixed points
// spread over the 12 m square room of the locate benchmarks.
func locateProbes(dep *tafloc.Deployment) [][]float64 {
	const probes = 16
	ys := make([][]float64, 0, probes)
	for k := 0; k < probes; k++ {
		p := tafloc.Point{X: 0.5 + 11.0*float64(k)/probes, Y: 0.5 + 11.0*float64((k*5)%probes)/probes}
		ys = append(ys, dep.Channel.MeasureLive(p, 0))
	}
	return ys
}

// BenchmarkModelLocate is the Model.Locate stage cost per matcher on
// the 400-cell, 17-link room the walk-http and refresh-udp workloads
// serve: one goroutine, one reused Scratch warmed before the timer, so
// allocs/op is the steady-state serving figure (0 for every matcher).
func BenchmarkModelLocate(b *testing.B) {
	dep, err := tafloc.NewDeployment(tafloc.SquareConfig(12))
	if err != nil {
		b.Fatal(err)
	}
	ys := locateProbes(dep)
	for _, name := range []string{"nn", "knn", "bayes", "wknn"} {
		b.Run(name, func(b *testing.B) {
			sys, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher(name))
			if err != nil {
				b.Fatal(err)
			}
			model := sys.Model()
			sc := tafloc.NewScratch()
			for _, y := range ys {
				if _, err := model.Locate(y, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := model.Locate(ys[i%len(ys)], sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManyZones measures the scheduler tentpole at fleet scale:
// 1000 zones on one service, sparse traffic (each op lands one report
// batch on one rotating zone). Under the worker-per-zone design this
// fleet cost 1000 parked goroutines; with the shared locate-executor
// pool the idle zones cost nothing and the pool does all the work. The
// zones share one calibrated System — safe now that the read plane is
// an immutable Model — so setup stays cheap. One op = one accepted
// batch (6 reports).
func BenchmarkManyZones(b *testing.B) {
	const zones = 1000
	const preparedBatches = 32
	cfg := tafloc.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := tafloc.NewService(
		tafloc.WithWindow(4),
		tafloc.WithDetectThreshold(0.25),
		tafloc.WithZoneQueue(64),
		tafloc.WithHistory(0),
	)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, zones)
	for z := 0; z < zones; z++ {
		ids[z] = fmt.Sprintf("zone-%04d", z)
		if err := svc.AddZone(ids[z], sys); err != nil {
			b.Fatal(err)
		}
	}
	var batches [][]tafloc.ZoneReport
	for k := 0; k < preparedBatches; k++ {
		p := tafloc.Point{X: 0.3 + 3.0*float64(k)/preparedBatches, Y: 0.3 + 1.8*float64(k%7)/7}
		y := dep.Channel.MeasureLive(p, 0)
		batch := make([]tafloc.ZoneReport, len(y))
		for i, v := range y {
			batch[i] = tafloc.ZoneReport{Link: i, RSS: v}
		}
		batches = append(batches, batch)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		b.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	var stream atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(stream.Add(1)) * 7919
		for pb.Next() {
			id := ids[i%zones]
			batch := append([]tafloc.ZoneReport(nil), batches[i%preparedBatches]...)
			for svc.Ingest(id, batch) != nil {
				time.Sleep(10 * time.Microsecond)
			}
			i++
		}
	})
	b.StopTimer()
	var received uint64
	for _, st := range svc.Stats() {
		received += st.Received
	}
	b.ReportMetric(float64(received)/b.Elapsed().Seconds(), "reports/s")
	b.ReportMetric(float64(goroutines), "goroutines")
	cancel()
	svc.Wait()
}

// BenchmarkServeThroughput measures sustainable end-to-end ingest of the
// multi-zone service: four zones, parallel producers, bounded queues
// providing backpressure, one batched match query per processing round.
// One op is one accepted report batch (6 reports).
func BenchmarkServeThroughput(b *testing.B) {
	const zones = 4
	const preparedBatches = 32
	cfg := tafloc.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	svc, err := tafloc.NewService(
		tafloc.WithWindow(4),
		tafloc.WithDetectThreshold(0.25),
		tafloc.WithZoneQueue(4096),
	)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, zones)
	batches := make([][][]tafloc.ZoneReport, zones)
	for z := 0; z < zones; z++ {
		dep, err := tafloc.NewDeployment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := tafloc.OpenDeployment(dep)
		if err != nil {
			b.Fatal(err)
		}
		ids[z] = fmt.Sprintf("zone-%d", z)
		if err := svc.AddZone(ids[z], sys); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < preparedBatches; k++ {
			p := tafloc.Point{
				X: 0.3 + 3.0*float64(k)/preparedBatches,
				Y: 0.3 + 1.8*float64(k%7)/7,
			}
			y := dep.Channel.MeasureLive(p, 0)
			batch := make([]tafloc.ZoneReport, len(y))
			for i, v := range y {
				batch[i] = tafloc.ZoneReport{Link: i, RSS: v}
			}
			batches[z] = append(batches[z], batch)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		b.Fatal(err)
	}
	var stream atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(stream.Add(1)) * 7919 // distinct start per producer
		for pb.Next() {
			z := i % zones
			// The service takes ownership of the slice, so hand it a copy.
			batch := append([]tafloc.ZoneReport(nil), batches[z][i%preparedBatches]...)
			for svc.Ingest(ids[z], batch) != nil {
				time.Sleep(10 * time.Microsecond) // queue full: backpressure
			}
			i++
		}
	})
	b.StopTimer()
	var received uint64
	for _, st := range svc.Stats() {
		received += st.Received
	}
	b.ReportMetric(float64(received)/b.Elapsed().Seconds(), "reports/s")
	cancel()
	svc.Wait()
}

// BenchmarkEvictRehydrate prices one full residency round trip per op:
// checkpoint a zone's calibrated state into the snapshot store and drop
// its Model, then restore it from the stored bytes. This is the tax a
// service over its hot-zone cap pays when traffic returns to a cold
// zone, measured against both production backends.
func BenchmarkEvictRehydrate(b *testing.B) {
	cfg := tafloc.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	backends := []struct {
		name  string
		store tafloc.SnapshotStore
	}{
		{"mem", tafloc.NewMemStore()},
		{"dir", tafloc.NewDirStore(b.TempDir())},
	}
	for _, backend := range backends {
		b.Run(backend.name, func(b *testing.B) {
			svc, err := tafloc.NewService(tafloc.WithSnapshotStore(backend.store))
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.AddZone("z", sys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.EvictZone("z"); err != nil {
					b.Fatal(err)
				}
				if err := svc.RehydrateZone("z"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManyZonesColdStart is the cold-start leg of
// BenchmarkManyZones: the same thousand-zone parallel ingest, but with
// the resident-Model cache capped at 64, so producers sweeping the zone
// space continuously force evictions and rehydrations. The gap between
// this bench's reports/s and BenchmarkManyZones' is the throughput cost
// of running 1000 zones in the memory footprint of 64.
func BenchmarkManyZonesColdStart(b *testing.B) {
	const zones = 1000
	const hotCap = 64
	const preparedBatches = 32
	cfg := tafloc.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := tafloc.NewService(
		tafloc.WithWindow(4),
		tafloc.WithDetectThreshold(0.25),
		tafloc.WithZoneQueue(64),
		tafloc.WithHistory(0),
		tafloc.WithMaxHotZones(hotCap),
	)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, zones)
	for z := 0; z < zones; z++ {
		ids[z] = fmt.Sprintf("zone-%04d", z)
		if err := svc.AddZone(ids[z], sys); err != nil {
			b.Fatal(err)
		}
	}
	var batches [][]tafloc.ZoneReport
	for k := 0; k < preparedBatches; k++ {
		p := tafloc.Point{X: 0.3 + 3.0*float64(k)/preparedBatches, Y: 0.3 + 1.8*float64(k%7)/7}
		y := dep.Channel.MeasureLive(p, 0)
		batch := make([]tafloc.ZoneReport, len(y))
		for i, v := range y {
			batch[i] = tafloc.ZoneReport{Link: i, RSS: v}
		}
		batches = append(batches, batch)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		b.Fatal(err)
	}
	var stream atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(stream.Add(1)) * 7919
		for pb.Next() {
			id := ids[i%zones]
			batch := append([]tafloc.ZoneReport(nil), batches[i%preparedBatches]...)
			for svc.Ingest(id, batch) != nil {
				time.Sleep(10 * time.Microsecond)
			}
			i++
		}
	})
	b.StopTimer()
	var received, rehydrates uint64
	for _, st := range svc.Stats() {
		received += st.Received
		rehydrates += st.Rehydrates
	}
	b.ReportMetric(float64(received)/b.Elapsed().Seconds(), "reports/s")
	b.ReportMetric(float64(rehydrates), "rehydrates")
	cancel()
	svc.Wait()
}
