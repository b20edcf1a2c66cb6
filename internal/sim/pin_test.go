package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"equinox/internal/flight"
	"equinox/internal/telemetry"
	"equinox/internal/workloads"
)

// instrumentedPins are the SHA-256 hashes of a fully instrumented run's
// exports — flight CSV (every packet traced, nothing overwritten), telemetry
// CSV, one probe CSV per network and the Result JSON — for every scheme ×
// {kmeans, hotspot} × seeds {1, 7} at 40 instructions per PE. They were
// recorded before the three NI types became one (ISSUE 24) and pin what
// bench/golden.json cannot see: every NI decision shows up as a `buffer` or
// `stall` flight event, so a refactor of the injection side that moves one
// dispatch by one cycle changes a hash here. Regenerate only for a deliberate
// model change: the failure message prints the new value.
var instrumentedPins = map[string]string{
	"SingleBase/kmeans/1":        "15d1e193ab096b1e72eed25fb10544dab936c46e112515cf7c03cd634968fc8d",
	"SingleBase/kmeans/7":        "69ea076346dcb6d509da0521f53462ab24592fbe4052f93a8294b89050c5dd7e",
	"SingleBase/hotspot/1":       "03f8d93b65d2716ffdc8b88b5b8ec7e75c59e319c5eeabeab409b8d6f6b1ca22",
	"SingleBase/hotspot/7":       "d50fa1a038e5e63832c3d0bd16a26a3aa8d91522c2f40b23688fb218f281eb8e",
	"VC-Mono/kmeans/1":           "811451016613847f3afbc5478a49fc8516b5f487402d98d73d056fd2700e97ea",
	"VC-Mono/kmeans/7":           "ccef151c9bdc7a831978073927fc427f2947b28d10321439ccb180981a0aabbb",
	"VC-Mono/hotspot/1":          "1e8a93f96f1b77302d22c3db55dd490dc4b1e62025717a1301f6c521021a6002",
	"VC-Mono/hotspot/7":          "0bd041fe6c070cba51842c279ded10bd0f352313cfb909992cfccdb3fac57fde",
	"Interposer-CMesh/kmeans/1":  "0f32c1b82afcdd6bbc4485e2ff3238e2ec81ccf14aaebc95505aed8167063f43",
	"Interposer-CMesh/kmeans/7":  "342430b90df1b6321db8122dae3833e1f789aa8de95dfb256a5682f9d4e031ba",
	"Interposer-CMesh/hotspot/1": "8747510a879da9f2d6bb04c681c3e868ee6e50a632458c15a06479ee9e92af1b",
	"Interposer-CMesh/hotspot/7": "4f25afc3c155ae2917eaf84ef21d00cdc76b12199e5f2df8b6b37182a40c2b8c",
	"SeparateBase/kmeans/1":      "df7f030d195bff0e4e0db17d7f58d901e3167abfbf84499652849efbffb0bb08",
	"SeparateBase/kmeans/7":      "edf3eba566ae8ceb89a5086499471fdec1bd86931ed3d5787d84d2eb17dfcd9f",
	"SeparateBase/hotspot/1":     "e3a67c352ca7292fc18d0c591acded3bcae8831f53e6cc63040c96af7baedee9",
	"SeparateBase/hotspot/7":     "310f5c734f75ef4a97e90235263b08a0ed42c8d52757c56863e00a816c46a053",
	"DA2Mesh/kmeans/1":           "40e4b049f83a725b550a6609f0d89b781aeb0181d63181cb26b1fedf85219f4c",
	"DA2Mesh/kmeans/7":           "2cfcf2e0b05b7dc713dc73e86c1416e1b1c3e37d12e4ee604b9e2933edb5da72",
	"DA2Mesh/hotspot/1":          "00ed9f0a6a4c78a932ce2ba6b5b844fa49ac5628955cfe94676451456f522f57",
	"DA2Mesh/hotspot/7":          "4878c47feadf53d014f932df1e089bc35922e9ad556e413c6e4633497219a897",
	"MultiPort/kmeans/1":         "07c9e5f25fb399efe6a09418ff0d27e40adb676900f8cc0b9f9789cbe1a2f0d6",
	"MultiPort/kmeans/7":         "cd462dc22915983af80967925db297341e6e8e27af7d2abebd2f27911bd0651b",
	"MultiPort/hotspot/1":        "0ea9dddf532a6319a7563e64ff95a31aa4175fd99872c075df162c72fb0f80f7",
	"MultiPort/hotspot/7":        "5a85e669e7c2b042a7c249718e8bcc52c8764fcb6b6ff0eb6d5f1ce7653a4812",
	"EquiNox/kmeans/1":           "774e548d7aaae407c0e1171c3d983cf13499a43233a0f479821e9d6881a6e1ff",
	"EquiNox/kmeans/7":           "e4dc8754957a2ab80498674b0f97da27246618f74411c984bc2a61c6436e7659",
	"EquiNox/hotspot/1":          "ea0bf0e77ddd698e1aa067a8250cf728387dc18a3b834df9e89bbd4f2ff1b777",
	"EquiNox/hotspot/7":          "2f5d97a4a22671269e1c3d4853b838a90229984dc14e75fd70360095cdbbd64e",
}

// instrumentedPin16 pins the same exports for one EquiNox kmeans run on a
// 16×16 mesh with 16 CBs. There the stepper's router sets span four words, so
// a flit switch traversal deposits downstream can land in a router the same
// switch-allocation walk has yet to visit; the 8×8 rows, whose sets fit one
// word, never see that order.
const instrumentedPin16 = "e67388641ea74857334df297ea1d2829995ccaa08dd6d602237d6eca4d7b1fff"

// TestInstrumentedExportsPinned runs each pinned (scheme, benchmark, seed)
// with flight, telemetry and probes attached and compares the hash of
// everything they export with instrumentedPins.
func TestInstrumentedExportsPinned(t *testing.T) {
	for _, s := range AllSchemes() {
		for _, bench := range []string{"kmeans", "hotspot"} {
			for _, seed := range []int64{1, 7} {
				key := fmt.Sprintf("%v/%s/%d", s, bench, seed)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					if got := instrumentedHash(t, s, bench, seed, 8); got != instrumentedPins[key] {
						t.Errorf("instrumented exports changed:\n got %s\nwant %s", got, instrumentedPins[key])
					}
				})
			}
		}
	}
	t.Run("EquiNox/kmeans/1/16x16", func(t *testing.T) {
		t.Parallel()
		if got := instrumentedHash(t, EquiNox, "kmeans", 1, 16); got != instrumentedPin16 {
			t.Errorf("instrumented exports changed:\n got %s\nwant %s", got, instrumentedPin16)
		}
	})
}

// instrumentedHash runs one pinned configuration on a mesh×mesh mesh with
// mesh CBs and hashes its exports.
func instrumentedHash(t *testing.T, s SchemeKind, bench string, seed int64, mesh int) string {
	prof, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(s, t)
	cfg.InstructionsPerPE = 40
	cfg.Seed = seed
	if mesh != cfg.Width {
		cfg.Width, cfg.Height, cfg.NumCBs = mesh, mesh, mesh
		if s == EquiNox {
			cfg.CBOverride, cfg.EIRGroups = designGroups(t, mesh, mesh, mesh)
		}
	}
	sys, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	fl := sys.AttachFlight(flight.Options{SampleMod: 1, BufferCap: 1 << 17 * (mesh / 8) * (mesh / 8)})
	tel := sys.AttachTelemetry(telemetry.Options{SampleEvery: 16, WindowCycles: 128, MaxWindows: 512})
	probes := sys.AttachProbes(8)
	res, err := sys.RunToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if fl.TotalEvents() == 0 {
		t.Fatal("no flight events recorded")
	}
	if n := fl.Overwritten(); n != 0 {
		t.Fatalf("flight ring overwrote %d events; raise BufferCap so the hash covers every event", n)
	}
	var buf bytes.Buffer
	if err := fl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteCSV(&buf, []telemetry.RunSummary{tel.Summary()}); err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if err := p.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// sampledFlightPins are the SHA-256 hashes of a sampled flight recorder's
// exports — the flight CSV, every recorder's formatted tail-latency dumps and
// the TailExceeded count — for every scheme on hotspot, seed 1, at 40
// instructions per PE. instrumentedPins trace every packet with no latency
// bound, so they cannot see the sampling filter's effect on the stall dedup
// or the tail-dump path; these rows can.
var sampledFlightPins = map[string]string{
	"SingleBase/hotspot/1":       "36a8bca791ae24a169769bbeb006778ace473cd443db19e739158589451b5fda",
	"VC-Mono/hotspot/1":          "39bbbe7265d5780fd148604050b2a1d18893c2ad2af626f41753a8c7290bf093",
	"Interposer-CMesh/hotspot/1": "7639c564aa08d2168cfe4303e030d8e708c16507dade50f77932b5e28635ec19",
	"SeparateBase/hotspot/1":     "bc8ae8852fc6c4d605261a707c5db8d8d39063bbc1165b4cf669381547f6bd1c",
	"DA2Mesh/hotspot/1":          "d6b81cb0301f1b46051ce7310a52e68c57bff5488d95ebb2adf9fb9a6a2809cd",
	"MultiPort/hotspot/1":        "cc16de92ffadde1e48bb83e06cb29fdfa9cff075b0a0df4b2e62eca2949859cb",
	"EquiNox/hotspot/1":          "69163e403cf6ff464505251dbd6650c70df833cd90e2d31aa83b30e497e763a1",
}

// sampledFlightLatency is low enough that every scheme's hotspot run
// delivers packets over it, so tail dumps fire.
const sampledFlightLatency = 60

// TestSampledFlightPinned runs each scheme with a sampled, latency-bounded
// flight recorder and compares the hash of its exports with
// sampledFlightPins.
func TestSampledFlightPinned(t *testing.T) {
	for _, s := range AllSchemes() {
		key := fmt.Sprintf("%v/hotspot/1", s)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			prof, err := workloads.ByName("hotspot")
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig(s, t)
			cfg.InstructionsPerPE = 40
			cfg.Seed = 1
			sys, err := NewSystem(cfg, prof)
			if err != nil {
				t.Fatal(err)
			}
			fl := sys.AttachFlight(flight.Options{SampleMod: 3, LatencyLimit: sampledFlightLatency})
			if _, err := sys.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := fl.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			dumps := 0
			for _, rec := range fl.Recorders {
				for _, d := range rec.TailDumps() {
					fmt.Fprintf(&buf, "%d %d\n%s", d.Pkt, d.Latency, rec.FormatEvents(d.Events))
					dumps++
				}
			}
			fmt.Fprintf(&buf, "%d\n", fl.TailExceeded())
			if dumps == 0 {
				t.Fatal("no tail dumps fired; lower sampledFlightLatency")
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != sampledFlightPins[key] {
				t.Errorf("sampled flight exports changed (%d tail dumps, %d over the bound):\n got %s\nwant %s", dumps, fl.TailExceeded(), got, sampledFlightPins[key])
			}
		})
	}
}
