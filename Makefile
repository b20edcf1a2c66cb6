# EquiNox reproduction — convenience targets.

GO ?= go

.PHONY: all build vet test race eval serve fleet-smoke chaos-smoke saturation-sweep heatmap design cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass (the evaluation server's worker pool in particular).
race:
	$(GO) test -race ./...

# Regenerate the paper's evaluation (Figures 9/10/11, Table 1, §6.6).
eval:
	$(GO) run ./cmd/equinox-eval

# Evaluation-as-a-service: HTTP job server with result caching.
serve:
	$(GO) run ./cmd/equinox-server

# End-to-end fleet check: builds the real server and worker binaries,
# shards a sweep across a coordinator plus two workers, and compares the
# assembled result byte-for-byte against the committed single-process
# golden. FLEET_SMOKE_STORE_DIR pins the store directory (CI uploads it
# as an artifact on failure).
fleet-smoke:
	FLEET_SMOKE=1 $(GO) test -count=1 -run TestFleetSmoke -v ./internal/service

# Chaos harness: seeded fault injection (store errors, torn writes,
# dropped/duplicated/5xx network traffic, worker kills, coordinator
# kill-and-restart) with every scenario asserting the result bytes stay
# identical to a fault-free run. CHAOS_SMOKE=1 widens the seed set;
# CHAOS_ARTIFACT_DIR collects per-scenario fault/event/journal records
# (CI uploads them on failure).
chaos-smoke:
	CHAOS_SMOKE=1 $(GO) test -count=1 -v \
		-run 'TestChaosConvergence|TestServerRecoversJournaledJobs|TestAdmissionShedsBatchBeforeInteractive' \
		./internal/service

# Injection-rate sweep demo: drives SingleBase and EquiNox from light load
# into overload, asserts the saturation detector stays quiet at the light
# end and fires at the heavy end, and writes every window as CSV for
# plotting (override the path with TELEMETRY_SWEEP_CSV).
TELEMETRY_SWEEP_CSV ?= telemetry-sweep.csv
saturation-sweep:
	TELEMETRY_SWEEP_CSV=$(TELEMETRY_SWEEP_CSV) $(GO) test -count=1 -v \
		-run TestSaturationSweep ./internal/sim

# Figure 4 heat maps and the placement scoring table.
heatmap:
	$(GO) run ./cmd/equinox-heatmap

# The §4 design flow.
design:
	$(GO) run ./cmd/equinox-design

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out
