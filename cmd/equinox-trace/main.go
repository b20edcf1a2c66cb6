// Command equinox-trace runs one full-system simulation with per-packet
// tracing on the reply network(s) and reports tail latencies (p50/p95/p99)
// that the averaged Figure 10 metrics cannot show, optionally dumping the
// raw trace as CSV or JSON.
//
// With -heatmap it also probes router occupancy across the scheme's
// networks and prints a per-router ASCII heat map — the paper's Figure 4
// hot zone around the CBs, which EquiNox's injection routers disperse.
//
// With -events it attaches the flight recorder: a ring buffer of per-packet
// lifecycle events (creation, NI buffer assignment, injection stalls, VC
// allocation, switch grants, link traversals, ejection) on every network of
// the scheme, exportable as Chrome trace-event JSON for Perfetto or
// chrome://tracing (-perfetto) and as CSV (-events-csv). The starvation
// watchdog and tail-latency trigger ride along; a watchdog abort still
// writes the requested event dumps before exiting nonzero.
//
// With -spans it instead downloads an equinox-server job's distributed span
// trace (GET /v1/jobs/{id}/spans) — the stitched coordinator + fleet-worker
// span tree, already in Perfetto trace-event form:
//
//	equinox-trace -spans <jobID> [-server http://localhost:8080] [-spans-out spans.json]
//
// With -telemetry it downloads a telemetry-flagged job's windowed
// time-series (GET /v1/jobs/{id}/telemetry) — per-window throughput,
// latency quantiles, occupancy, and the saturation/steady-state verdicts —
// as JSON and/or flattened per-window CSV for plotting:
//
//	equinox-trace -telemetry <jobID> [-telemetry-out t.json] [-telemetry-csv windows.csv]
//
// Both fetch modes exit nonzero with the server's explanation on a 404
// (unknown or uninstrumented job) or 409 (job still running) without
// creating the output file.
//
// Usage:
//
//	equinox-trace [-scheme EquiNox] [-bench kmeans] [-instr 600]
//	              [-csv trace.csv] [-jsonout trace.json]
//	              [-heatmap] [-heatmap-csv occ.csv] [-probe-every 64]
//	              [-events] [-perfetto out.json] [-events-csv events.csv]
//	              [-sample 1] [-tail-latency 0] [-flight-cap 65536]
//	              [-stall-limit 50000]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"equinox"
	"equinox/internal/flight"
	"equinox/internal/noc"
	"equinox/internal/sim"
	"equinox/internal/telemetry"
	"equinox/internal/trace"
	"equinox/internal/viz"
	"equinox/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("equinox-trace: ")
	var (
		scheme  = flag.String("scheme", "EquiNox", "scheme to simulate")
		bench   = flag.String("bench", "kmeans", "benchmark name")
		instr   = flag.Int("instr", 600, "instructions per PE")
		seed    = flag.Int64("seed", 1, "simulation seed")
		csvOut  = flag.String("csv", "", "write the reply trace as CSV to this file")
		jsonOut = flag.String("jsonout", "", "write the reply trace as JSON to this file")

		heatmap    = flag.Bool("heatmap", false, "print a per-router occupancy heat map across the scheme's networks")
		heatmapCSV = flag.String("heatmap-csv", "", "write per-router probe data as CSV to this file")
		probeEvery = flag.Int64("probe-every", 64, "probe sampling period in cycles (with -heatmap / -heatmap-csv)")

		events     = flag.Bool("events", false, "attach the flight recorder: per-packet lifecycle events on every network")
		perfetto   = flag.String("perfetto", "", "write flight events as Chrome trace-event JSON for Perfetto (implies -events)")
		eventsCSV  = flag.String("events-csv", "", "write flight events as CSV (implies -events)")
		sampleMod  = flag.Int64("sample", 1, "flight sampling: trace packets whose ID %% N == 0 (1 = every packet)")
		tailBound  = flag.Int64("tail-latency", 0, "dump event history of packets delivered above N cycles (0 = off)")
		flightCap  = flag.Int("flight-cap", 0, "flight ring capacity in events per network (0 = default 65536)")
		stallLimit = flag.Int64("stall-limit", 0, "starvation watchdog window in cycles (0 = default 50000, <0 = off)")

		spansJob = flag.String("spans", "", "download a server job's distributed span trace instead of simulating (job ID)")
		server   = flag.String("server", "http://localhost:8080", "equinox-server base URL (with -spans / -telemetry)")
		spansOut = flag.String("spans-out", "", "write the downloaded span trace to this file (default stdout)")

		telemetryJob = flag.String("telemetry", "", "download a server job's windowed telemetry instead of simulating (job ID)")
		telemetryOut = flag.String("telemetry-out", "", "write the downloaded telemetry JSON to this file (default stdout)")
		telemetryCSV = flag.String("telemetry-csv", "", "flatten the downloaded telemetry into per-window CSV rows in this file (with -telemetry)")
	)
	flag.Parse()

	if *spansJob != "" {
		if err := fetchArtifact(*server, *spansJob, "spans", *spansOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *telemetryJob != "" {
		if err := fetchTelemetry(*server, *telemetryJob, *telemetryOut, *telemetryCSV); err != nil {
			log.Fatal(err)
		}
		return
	}

	kind, ok := sim.ParseScheme(*scheme)
	if !ok {
		log.Fatalf("unknown scheme %q", *scheme)
	}
	cfg := sim.DefaultConfig(kind)
	cfg.InstructionsPerPE = *instr
	cfg.Seed = *seed
	if kind == sim.EquiNox {
		d, err := equinox.DesignForMesh(cfg.Width, cfg.Height, cfg.NumCBs)
		if err != nil {
			log.Fatal(err)
		}
		cfg.CBOverride = d.CBs
		cfg.EIRGroups = d.Groups
	}
	prof, err := workloads.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := sim.NewSystem(cfg, prof)
	if err != nil {
		log.Fatal(err)
	}
	var capture *flight.Capture
	if *events || *perfetto != "" || *eventsCSV != "" {
		capture = sys.AttachFlight(flight.Options{
			SampleMod:    *sampleMod,
			BufferCap:    *flightCap,
			StallLimit:   *stallLimit,
			LatencyLimit: *tailBound,
		})
	}
	rec := &trace.Recorder{}
	for _, n := range sys.ReplyNetworks() {
		rec.Attach(n)
	}
	if capture != nil {
		if rn := sys.ReplyNetworks(); len(rn) > 0 {
			rec.WithFlight(rn[0].FlightRecorder())
		}
	}
	// Probes cover every network of the scheme so occupancy is comparable
	// across schemes regardless of how each splits traffic over meshes.
	var probes []*noc.Probe
	if *heatmap || *heatmapCSV != "" {
		probes = sys.AttachProbes(*probeEvery)
	}
	res, runErr := sys.RunToCompletion()
	if runErr != nil {
		// A starvation-watchdog abort is exactly when the flight dump is
		// most useful, so write the requested exports before exiting.
		log.Printf("run failed: %v", runErr)
		if capture == nil {
			os.Exit(1)
		}
	}

	if runErr == nil {
		fmt.Printf("%v / %s: %d cycles, %d packets traced on reply networks\n",
			res.Scheme, res.Benchmark, res.ExecCycles, len(rec.Records))
		for _, p := range []float64{50, 90, 95, 99} {
			v, err := rec.Percentile(p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  p%-4.0f latency: %5d cycles\n", p, v)
		}
		h, err := rec.NewHistogram(10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  max latency:  %5d cycles over %d bins\n", h.Max, len(h.Counts))
	}

	if capture != nil {
		fmt.Printf("flight: %d events (%d overwritten), %d starvation fire(s), %d tail-latency hit(s)\n",
			capture.TotalEvents(), capture.Overwritten(),
			capture.StarvationFires(), capture.TailExceeded())
		for _, fr := range capture.Recorders {
			for _, d := range fr.TailDumps() {
				fmt.Printf("  tail packet %d on %s: %d cycles, %d events\n%s",
					d.Pkt, fr.Name, d.Latency, len(d.Events), fr.FormatEvents(d.Events))
			}
		}
		if *perfetto != "" {
			f, err := os.Create(*perfetto)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := capture.WritePerfetto(f); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", *perfetto)
		}
		if *eventsCSV != "" {
			f, err := os.Create(*eventsCSV)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := capture.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", *eventsCSV)
		}
	}
	if runErr != nil {
		os.Exit(1)
	}

	if *heatmap {
		heat := noc.CombineMeanOccupancy(probes)
		title := fmt.Sprintf("%v NoC occupancy (buffered + NI-queued flits/router, sampled every %d cycles)",
			res.Scheme, *probeEvery)
		fmt.Print("\n", viz.ASCIIHeatmap(title, cfg.Width, cfg.Height, heat))
		fmt.Printf("  hot-zone concentration (max/mean): %.2f\n", noc.MaxMeanRatio(heat))
		fmt.Printf("  mean packet latency: %.1f cycles over %d deliveries\n",
			meanLatency(probes), totalLatencyCount(probes))
	}
	if *heatmapCSV != "" {
		f, err := os.Create(*heatmapCSV)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		for i, p := range probes {
			if i > 0 {
				fmt.Fprintln(f)
			}
			fmt.Fprintf(f, "# network %d\n", i)
			if err := p.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println("wrote", *heatmapCSV)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *csvOut)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := rec.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *jsonOut)
	}
}

// getArtifact fetches one of a job's artifact endpoints and returns the
// body. Any non-200 — 404 for an unknown/uninstrumented job, 409 for one
// still running — becomes an error carrying the server's explanation
// verbatim, so callers exit nonzero before creating (or truncating) any
// output file.
func getArtifact(server, jobID, endpoint string) ([]byte, error) {
	url := strings.TrimRight(server, "/") + "/v1/jobs/" + jobID + "/" + endpoint
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return io.ReadAll(resp.Body)
}

// fetchArtifact downloads a job artifact and writes it to out (stdout when
// empty). The output file is only created after a successful fetch.
func fetchArtifact(server, jobID, endpoint, out string) error {
	body, err := getArtifact(server, jobID, endpoint)
	if err != nil {
		return err
	}
	if out == "" {
		_, err := os.Stdout.Write(body)
		return err
	}
	if err := os.WriteFile(out, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, len(body))
	return nil
}

// fetchTelemetry downloads a job's windowed telemetry summaries
// (GET /v1/jobs/{id}/telemetry) and writes the raw JSON to jsonOut (stdout
// when no CSV was requested either) and/or a flattened per-window CSV to
// csvOut. Like fetchArtifact, nothing is written on a failed fetch.
func fetchTelemetry(server, jobID, jsonOut, csvOut string) error {
	body, err := getArtifact(server, jobID, "telemetry")
	if err != nil {
		return err
	}
	var sums []telemetry.RunSummary
	if csvOut != "" {
		// Decode before touching the filesystem so a malformed body cannot
		// leave a truncated CSV behind.
		if err := json.Unmarshal(body, &sums); err != nil {
			return fmt.Errorf("parse telemetry for %s: %w", jobID, err)
		}
	}
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, body, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", jsonOut, len(body))
	} else if csvOut == "" {
		if _, err := os.Stdout.Write(body); err != nil {
			return err
		}
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.WriteCSV(f, sums); err != nil {
			return err
		}
		fmt.Println("wrote", csvOut)
	}
	return nil
}

// meanLatency is the delivery-weighted mean over all probes.
func meanLatency(probes []*noc.Probe) float64 {
	var sum, count float64
	for _, p := range probes {
		n := float64(p.LatencyCount())
		sum += p.MeanLatency() * n
		count += n
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

func totalLatencyCount(probes []*noc.Probe) int64 {
	var n int64
	for _, p := range probes {
		n += p.LatencyCount()
	}
	return n
}
