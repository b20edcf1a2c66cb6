package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"

	"equinox"
	"equinox/internal/flight"
	"equinox/internal/noc"
	"equinox/internal/sim"
	"equinox/internal/telemetry"
	"equinox/internal/viz"
	"equinox/internal/workloads"
)

// traceCommand runs one full-system simulation with per-packet tracing on
// the reply network(s) and reports tail latencies (p50/p95/p99) that the
// averaged Figure 10 metrics cannot show, optionally dumping the raw trace
// as CSV or JSON:
//
//	equinox trace [-scheme EquiNox] [-bench kmeans] [-instr 600]
//	              [-csv trace.csv] [-jsonout trace.json]
//	              [-heatmap] [-heatmap-csv occ.csv] [-probe-every 64]
//	              [-events] [-perfetto out.json] [-events-csv events.csv]
//	              [-sample 1] [-tail-latency 0] [-flight-cap 65536]
//	              [-stall-limit 50000]
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
// With -spans it instead downloads an `equinox serve` job's distributed
// span trace (GET /v1/jobs/{id}/spans) — the stitched coordinator +
// fleet-worker span tree, already in Perfetto trace-event form:
//
//	equinox trace -spans <jobID> [-server http://localhost:8080] [-spans-out spans.json]
//
// With -telemetry it downloads a telemetry-flagged job's windowed
// time-series (GET /v1/jobs/{id}/telemetry) — per-window throughput,
// latency quantiles, occupancy, and the saturation/steady-state verdicts —
// as JSON and/or flattened per-window CSV for plotting:
//
//	equinox trace -telemetry <jobID> [-telemetry-out t.json] [-telemetry-csv windows.csv]
//
// Both fetch modes exit nonzero with the server's explanation on a 404
// (unknown or uninstrumented job) or 409 (job still running) without
// creating the output file; Ctrl-C aborts a fetch the server never answers.
func traceCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		scheme  = fs.String("scheme", "EquiNox", "scheme to simulate")
		bench   = fs.String("bench", "kmeans", "benchmark name")
		instr   = fs.Int("instr", 600, "instructions per PE")
		seed    = fs.Int64("seed", 1, "simulation seed")
		csvOut  = fs.String("csv", "", "write the reply trace as CSV to this file")
		jsonOut = fs.String("jsonout", "", "write the reply trace as JSON to this file")

		heatmap    = fs.Bool("heatmap", false, "print a per-router occupancy heat map across the scheme's networks")
		heatmapCSV = fs.String("heatmap-csv", "", "write per-router probe data as CSV to this file")
		probeEvery = fs.Int64("probe-every", 64, "probe sampling period in cycles (with -heatmap / -heatmap-csv)")

		events     = fs.Bool("events", false, "attach the flight recorder: per-packet lifecycle events on every network")
		perfetto   = fs.String("perfetto", "", "write flight events as Chrome trace-event JSON for Perfetto (implies -events)")
		eventsCSV  = fs.String("events-csv", "", "write flight events as CSV (implies -events)")
		sampleMod  = fs.Int64("sample", 1, "flight sampling: trace packets whose ID %% N == 0 (1 = every packet)")
		tailBound  = fs.Int64("tail-latency", 0, "dump event history of packets delivered above N cycles (0 = off)")
		flightCap  = fs.Int("flight-cap", 0, "flight ring capacity in events per network (0 = default 65536)")
		stallLimit = fs.Int64("stall-limit", 0, "starvation watchdog window in cycles (0 = default 50000, <0 = off)")

		spansJob = fs.String("spans", "", "download a server job's distributed span trace instead of simulating (job ID)")
		server   = fs.String("server", "http://localhost:8080", "equinox serve base URL (with -spans / -telemetry)")
		spansOut = fs.String("spans-out", "", "write the downloaded span trace to this file (default stdout)")

		telemetryJob = fs.String("telemetry", "", "download a server job's windowed telemetry instead of simulating (job ID)")
		telemetryOut = fs.String("telemetry-out", "", "write the downloaded telemetry JSON to this file (default stdout)")
		telemetryCSV = fs.String("telemetry-csv", "", "flatten the downloaded telemetry into per-window CSV rows in this file (with -telemetry)")
	)
	return func(ctx context.Context, stdout io.Writer) error {
		if *spansJob != "" {
			body, err := getArtifact(ctx, *server, *spansJob, "spans")
			if err != nil {
				return err
			}
			return writeBody(stdout, *spansOut, body)
		}
		if *telemetryJob != "" {
			return fetchTelemetry(ctx, stdout, *server, *telemetryJob, *telemetryOut, *telemetryCSV)
		}

		kind, ok := sim.ParseScheme(*scheme)
		if !ok {
			return fmt.Errorf("unknown scheme %q", *scheme)
		}
		cfg := sim.DefaultConfig(kind)
		cfg.InstructionsPerPE = *instr
		cfg.Seed = *seed
		if kind == sim.EquiNox {
			d, err := equinox.DesignForMesh(cfg.Width, cfg.Height, cfg.NumCBs)
			if err != nil {
				return err
			}
			cfg.CBOverride = d.CBs
			cfg.EIRGroups = d.Groups
		}
		prof, err := workloads.ByName(*bench)
		if err != nil {
			return err
		}
		sys, err := sim.NewSystem(cfg, prof)
		if err != nil {
			return err
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
		dl := &deliveryLog{capture: capture}
		replyNets := sys.ReplyNetworks()
		for _, n := range sys.Networks() {
			n.Observe(deliveries{dl, slices.Contains(replyNets, n)})
		}
		// Probes cover every network of the scheme so occupancy is
		// comparable across schemes regardless of how each splits traffic
		// over meshes.
		var probes []*sim.Probe
		if *heatmap || *heatmapCSV != "" {
			probes = sys.AttachProbes(*probeEvery)
		}
		res, runErr := sys.RunToCompletionContext(ctx)
		trace := dl.trace
		if runErr != nil {
			runErr = fmt.Errorf("run failed: %w", runErr)
			// A starvation-watchdog abort is exactly when the flight dump
			// is most useful, so write the requested exports before
			// returning.
			if capture == nil {
				return runErr
			}
		}

		if runErr == nil {
			fmt.Fprintf(stdout, "%v / %s: %d cycles, %d packets traced on reply networks\n",
				res.Scheme, res.Benchmark, res.ExecCycles, len(trace))
			if len(trace) == 0 {
				return fmt.Errorf("no packets delivered on the reply networks")
			}
			lats := make([]int64, len(trace))
			for i, r := range trace {
				lats[i] = r.DeliveredAt - r.CreatedAt
			}
			slices.Sort(lats)
			for _, p := range []float64{50, 90, 95, 99} {
				fmt.Fprintf(stdout, "  p%-4.0f latency: %5d cycles\n", p, percentile(lats, p))
			}
			maxLat := lats[len(lats)-1]
			fmt.Fprintf(stdout, "  max latency:  %5d cycles over %d bins\n", maxLat, maxLat/latencyBin+1)
		}

		if capture != nil {
			fmt.Fprintf(stdout, "flight: %d events (%d overwritten), %d starvation fire(s), %d tail-latency hit(s)\n",
				capture.TotalEvents(), capture.Overwritten(),
				capture.StarvationFires(), capture.TailExceeded())
			for _, fr := range capture.Recorders {
				for _, d := range fr.TailDumps() {
					fmt.Fprintf(stdout, "  tail packet %d on %s: %d cycles, %d events\n%s",
						d.Pkt, fr.Name, d.Latency, len(d.Events), fr.FormatEvents(d.Events))
				}
			}
			if err := writeFile(stdout, *perfetto, capture.WritePerfetto); err != nil {
				return err
			}
			if err := writeFile(stdout, *eventsCSV, capture.WriteCSV); err != nil {
				return err
			}
		}
		if runErr != nil {
			return runErr
		}

		if *heatmap {
			heat := sim.CombineMeanOccupancy(probes)
			title := fmt.Sprintf("%v NoC occupancy (buffered + NI-queued flits/router, sampled every %d cycles)",
				res.Scheme, *probeEvery)
			fmt.Fprint(stdout, "\n", viz.ASCIIHeatmap(title, cfg.Width, cfg.Height, heat))
			fmt.Fprintf(stdout, "  hot-zone concentration (max/mean): %.2f\n", sim.MaxMeanRatio(heat))
			mean := 0.0
			if dl.delivered > 0 {
				mean = float64(dl.latSum) / float64(dl.delivered)
			}
			fmt.Fprintf(stdout, "  mean packet latency: %.1f cycles over %d deliveries\n", mean, dl.delivered)
		}
		err = writeFile(stdout, *heatmapCSV, func(w io.Writer) error {
			for i, p := range probes {
				if i > 0 {
					fmt.Fprintln(w)
				}
				fmt.Fprintf(w, "# network %d\n", i)
				if err := p.WriteCSV(w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := writeFile(stdout, *csvOut, func(w io.Writer) error { return writeCSV(w, trace) }); err != nil {
			return err
		}
		return writeFile(stdout, *jsonOut, func(w io.Writer) error { return json.NewEncoder(w).Encode(trace) })
	}
}

// latencyBin is the width, in cycles, of the latency histogram whose bin
// count the report prints.
const latencyBin = 10

// deliveryLog collects a run's deliveries: the trace holds the reply
// networks' in delivery order, the heat map's mean latency counts every
// network's.
type deliveryLog struct {
	trace             []record
	latSum, delivered int64
	capture           *flight.Capture // nil unless the flight recorder is on
}

// deliveries is the observer feeding one network's deliveries to a log.
type deliveries struct {
	*deliveryLog
	reply bool
}

func (d deliveries) Packet(_ int64, p *noc.Packet, k noc.EventKind, _ int, latency, _ int32) {
	if k != noc.Ejected {
		return
	}
	d.latSum += int64(latency)
	d.delivered++
	if d.reply {
		d.trace = append(d.trace, record{
			ID: p.ID, Type: p.Type.String(), Src: p.Src, Dst: p.Dst, Flits: p.Flits,
			CreatedAt: p.CreatedAt, InjectedAt: p.InjectedAt, DeliveredAt: p.DeliveredAt,
			Traced: d.capture != nil && d.capture.Recorders[0].Hit(p.ID),
		})
	}
}

func (deliveries) EndCycle(int64) {}

// record is one packet delivered on a reply network.
type record struct {
	ID          int64  `json:"id"`
	Type        string `json:"type"`
	Src         int    `json:"src"`
	Dst         int    `json:"dst"`
	Flits       int    `json:"flits"`
	CreatedAt   int64  `json:"createdAt"`
	InjectedAt  int64  `json:"injectedAt"`
	DeliveredAt int64  `json:"deliveredAt"`
	// Traced reports whether the flight recorder sampled the packet, i.e.
	// whether its lifecycle events are in the -perfetto/-events-csv dumps.
	Traced bool `json:"traced,omitempty"`
}

// percentile returns the pth percentile (0 < p ≤ 100) of a sorted,
// non-empty slice: its element of rank ⌊p/100·n⌋, counted from 1 and at
// least 1.
func percentile(sorted []int64, p float64) int64 {
	return sorted[max(int(p/100*float64(len(sorted)))-1, 0)]
}

// writeCSV emits the records with a header row and the queueing and
// in-network split of each packet's latency.
func writeCSV(w io.Writer, recs []record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"id", "type", "src", "dst", "flits", "created", "injected", "delivered",
		"queueCycles", "netCycles",
	}); err != nil {
		return err
	}
	for _, r := range recs {
		err := cw.Write([]string{
			strconv.FormatInt(r.ID, 10), r.Type,
			strconv.Itoa(r.Src), strconv.Itoa(r.Dst), strconv.Itoa(r.Flits),
			strconv.FormatInt(r.CreatedAt, 10),
			strconv.FormatInt(r.InjectedAt, 10),
			strconv.FormatInt(r.DeliveredAt, 10),
			strconv.FormatInt(r.InjectedAt-r.CreatedAt, 10),
			strconv.FormatInt(r.DeliveredAt-r.InjectedAt, 10),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// getArtifact fetches one of a job's artifact endpoints and returns the
// body; cancelling ctx aborts the request. Any non-200 — 404 for an
// unknown/uninstrumented job, 409 for one still running — becomes an error
// carrying the server's explanation verbatim, so callers exit nonzero
// before creating (or truncating) any output file.
func getArtifact(ctx context.Context, server, jobID, endpoint string) ([]byte, error) {
	url := strings.TrimRight(server, "/") + "/v1/jobs/" + jobID + "/" + endpoint
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
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

// fetchTelemetry downloads a job's windowed telemetry summaries
// (GET /v1/jobs/{id}/telemetry) and writes the raw JSON to jsonOut (stdout
// when no CSV was requested either) and/or a flattened per-window CSV to
// csvOut. Nothing is written on a failed fetch.
func fetchTelemetry(ctx context.Context, stdout io.Writer, server, jobID, jsonOut, csvOut string) error {
	body, err := getArtifact(ctx, server, jobID, "telemetry")
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
	if jsonOut != "" || csvOut == "" {
		if err := writeBody(stdout, jsonOut, body); err != nil {
			return err
		}
	}
	return writeFile(stdout, csvOut, func(w io.Writer) error { return telemetry.WriteCSV(w, sums) })
}

// writeBody writes a fetched artifact to out and reports its size, or
// copies it to stdout when out is empty. Callers fetch first, so a failed
// fetch creates no file.
func writeBody(stdout io.Writer, out string, body []byte) error {
	if out == "" {
		_, err := stdout.Write(body)
		return err
	}
	if err := os.WriteFile(out, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", out, len(body))
	return nil
}
