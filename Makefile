# Development and CI entry points. CI (.github/workflows) calls these same
# targets so a green `make ci` locally predicts a green PR.

GO ?= go

.PHONY: build test race lint bench-profile bench-contract ci check-smoke check-full scenario-smoke campaign-smoke specs-smoke resume-smoke fuzz-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt -w needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it)"; fi

# CPU and heap profiles of the saturated medium replication the repository
# benchmark gates as medium-pb-sat-1core (BenchmarkReplicationPBSat), of
# building its network (BenchmarkNetworkNew, what setup_s times) and of
# building one small Figure 5 network (BenchmarkNetworkNewSmall, what the
# sweep pays per replication), the heap profile of one small replication far
# past saturation (BenchmarkReplicationBacklogSmall) and, sampling every
# allocation, that of the sweep the benchmark gates as
# sweep-fig5-small-allcores (BenchmarkCampaignFig5Bench, one campaign.Run of
# bench/workloads/fig5-bench.campaign.json: DESIGN.md's sweep allocation
# table), for finding where a replication's and a sweep's time and memory go.
# A developer target: time claims go through bench/run.sh, not through this. The test binary is kept next to the
# profiles because `go tool pprof` resolves symbols against it.
PROFILE_DIR ?= bench-profiles
bench-profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench 'ReplicationPBSat' -benchtime 3x -benchmem \
		-cpuprofile $(PROFILE_DIR)/pbsat-cpu.pprof \
		-memprofile $(PROFILE_DIR)/pbsat-mem.pprof \
		-o $(PROFILE_DIR)/sim.test ./internal/sim | tee $(PROFILE_DIR)/pbsat-bench.txt
	$(GO) test -run xxx -bench 'NetworkNew$$' -benchtime 200x -benchmem \
		-cpuprofile $(PROFILE_DIR)/new-cpu.pprof \
		-memprofile $(PROFILE_DIR)/new-mem.pprof \
		-o $(PROFILE_DIR)/sim.test ./internal/sim | tee $(PROFILE_DIR)/new-bench.txt
	$(GO) test -run xxx -bench 'NetworkNewSmall' -benchtime 1000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/new-small-cpu.pprof \
		-memprofile $(PROFILE_DIR)/new-small-mem.pprof \
		-o $(PROFILE_DIR)/sim.test ./internal/sim | tee $(PROFILE_DIR)/new-small-bench.txt
	$(GO) test -run xxx -bench 'ReplicationBacklogSmall' -benchtime 3x -benchmem \
		-memprofile $(PROFILE_DIR)/backlog-mem.pprof \
		-o $(PROFILE_DIR)/sim.test ./internal/sim | tee $(PROFILE_DIR)/backlog-bench.txt
	$(GO) test -run xxx -bench 'CampaignFig5Bench' -benchtime 1x -benchmem -memprofilerate 1 \
		-memprofile $(PROFILE_DIR)/fig5-bench-mem.pprof \
		-o $(PROFILE_DIR)/campaign.test ./internal/campaign | tee $(PROFILE_DIR)/fig5-bench-bench.txt

# bench/ is a module of its own that the root `go test ./...` cannot reach;
# bench/api_test.go is the compile-time list of every program identifier the
# repository benchmark calls, so a PR that deletes or reshapes a public name
# fails here instead of silently breaking the harness.
bench-contract:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: lint test race bench-contract check-smoke specs-smoke campaign-smoke resume-smoke scenario-smoke

# The fuzz targets' seed corpora, then a short fuzzing session of each (about
# 120s; CI's fuzz job, kept out of `ci` for its length). A failing input is
# written under the package's testdata/fuzz/ for `go test` to replay.
fuzz-smoke:
	$(GO) test -run Fuzz ./internal/topology ./internal/routing ./internal/campaign ./internal/prng
	$(GO) test -fuzz FuzzDragonflyIDs -fuzztime 20s -run xxx ./internal/topology
	$(GO) test -fuzz FuzzFlattenedButterflyIDs -fuzztime 20s -run xxx ./internal/topology
	$(GO) test -fuzz FuzzPathValidity -fuzztime 20s -run xxx ./internal/routing
	$(GO) test -fuzz FuzzVCActivity -fuzztime 20s -run xxx ./internal/router
	$(GO) test -fuzz FuzzCampaignParse -fuzztime 20s -run xxx ./internal/campaign
	$(GO) test -fuzz FuzzSeedMatchesMathRand -fuzztime 20s -run xxx ./internal/prng

# The PR-time reproducibility gate: verify every recorded experiment in
# experiments/manifest.json. Digests of the committed exports and reports are
# always checked; entries cheap enough to finish under -max-wall are also
# re-simulated and byte-compared (transient-small and pb-policies-transient
# today — fig5-small's ~50s re-run is nightly-only, see check-full). Every
# entry's key space (results keys + config fingerprints) is compared with its
# spec either way, without simulating.
check-smoke:
	$(GO) run ./cmd/figures check -max-wall 10s all

# The full reproducibility verification (nightly): re-run every manifest
# entry, however expensive, and byte-compare exports and rendered reports
# against the committed artefacts. Scratch results stay under
# $(RESULTS_DIR_CHECK) so CI can upload the diverging exports on failure.
# The metered re-runs double as a live zero-impact check (byte-compare with a
# registry attached), and the snapshot is uploaded as a nightly artifact so
# phase/checkpoint profiles are trackable across runs without re-simulating.
# Then the drain sweep at small scale (about 30s): every spec variant at
# loads 0.4 and 1.0 must drain once its sources fall silent, except fig10's
# DAMQ with no private space, the paper's known deadlock.
RESULTS_DIR_CHECK ?= results/check
check-full:
	$(GO) run ./cmd/figures check -work $(RESULTS_DIR_CHECK) \
		-metrics-out $(RESULTS_DIR_CHECK)/metrics.json -v all
	$(GO) test ./internal/sim -run TestDrainSweep -count=1 -drain-scale small

# A quick end-to-end scenario run through flexvcsim (CI gate, under a second
# once built): selects the PB variant of the embedded transient campaign's
# UN -> ADV -> UN scenario section, simulates one replication and prints its
# windowed telemetry and adaptation lags as the markdown tables of
# sweep.RenderTransientMarkdown. Fails if the spec, the section runner or the
# engine break, or if either table is missing from the output.
scenario-smoke:
	set -e; out=$$($(GO) run ./cmd/flexvcsim -scale small -campaign transient -variant "PB per-VC 4/2" -seeds 1); \
	echo "$$out"; \
	for table in '#### Windowed telemetry' '#### Adaptation lag'; do \
		echo "$$out" | grep -qF "$$table" || { echo "scenario-smoke: no '$$table' table"; exit 1; }; \
	done

# A tiny end-to-end campaign through the declarative engine (CI gate): parse
# the embedded smoke spec, run it through the checkpointed runner, render the
# recorded results. Fails if the spec layer, the campaign compiler, the
# runner or the renderer break.
RESULTS_DIR_CAMPAIGN ?= results/campaign-smoke
campaign-smoke:
	$(GO) run ./cmd/figures run -campaign smoke -quick -results $(RESULTS_DIR_CAMPAIGN)
	$(GO) run ./cmd/figures render -campaign smoke -results $(RESULTS_DIR_CAMPAIGN) -out $(RESULTS_DIR_CAMPAIGN)/smoke.md

# Every embedded spec — the paper's figures, transient and smoke — run end to
# end at tiny scale in quick mode and rendered, so a spec that stops
# compiling, validating or rendering fails on the PR that breaks it: 345 tiny
# replications, about 1.5s wall on two cores once the binary is built. The
# results directory starts empty so every replication is simulated.
RESULTS_DIR_SPECS ?= results/specs-smoke
specs-smoke:
	rm -rf $(RESULTS_DIR_SPECS)
	$(GO) build -o $(RESULTS_DIR_SPECS)/figures ./cmd/figures
	set -e; for spec in $$($(RESULTS_DIR_SPECS)/figures list | awk '/^campaign specs/ {on=1; next} on {print $$1}'); do \
		$(RESULTS_DIR_SPECS)/figures run -campaign $$spec -scale tiny -quick -results $(RESULTS_DIR_SPECS)/$$spec >/dev/null; \
		$(RESULTS_DIR_SPECS)/figures render -exp $$spec -results $(RESULTS_DIR_SPECS)/$$spec -out $(RESULTS_DIR_SPECS)/$$spec.md >/dev/null; \
		echo "specs-smoke: $$spec ok"; \
	done

# The crash-resume gate on a real binary: run the embedded smoke spec once
# uninterrupted on one worker, then again on two workers into a second
# directory, SIGKILLed as soon as its first record lands (with two
# replications in flight), and once more on two workers to resume it. The two
# exports must be byte-identical, proving that checkpoints survive a kill -9,
# that a re-run of the same command resumes exactly and that the worker count
# never reaches the export. The resumed run's metrics snapshot must
# show replications both restored and simulated (so the gate cannot pass
# vacuously, by killing too late or too early), a checkpoint put latency
# histogram and the cycle loop's step phase. The results directory starts
# empty, and the binary is built once so the kill reaches the simulator itself.
RESULTS_DIR_RESUME ?= results/resume-smoke
resume-smoke:
	rm -rf $(RESULTS_DIR_RESUME)
	$(GO) build -o $(RESULTS_DIR_RESUME)/figures ./cmd/figures
	set -e; d=$(RESULTS_DIR_RESUME); run="$$d/figures run -campaign smoke -quick -seeds 8 -workers 2"; \
	$$d/figures run -campaign smoke -quick -seeds 8 -workers 1 -results $$d/whole >/dev/null; \
	$$run -results $$d/resumed >/dev/null 2>&1 & pid=$$!; \
	until ls $$d/resumed/records/*.json >/dev/null 2>&1; do \
		kill -0 $$pid 2>/dev/null || { echo "resume-smoke: the run exited before its first record"; exit 1; }; \
		sleep 0.01; \
	done; \
	kill -9 $$pid; wait $$pid || true; \
	$$run -results $$d/resumed -metrics-out $$d/metrics.json >/dev/null; \
	diff $$d/whole/smoke.results.json $$d/resumed/smoke.results.json; \
	m=$$d/metrics.json; \
	for series in \
		'"flexvc_sweep_replications_restored_total": [1-9]' \
		'"flexvc_sweep_replications_simulated_total": [1-9]' \
		'"flexvc_sim_phase_wall_ns_total\{phase=\\"step\\"\}": [1-9]'; do \
		grep -E "$$series" $$m >/dev/null || { \
			echo "resume-smoke: $$series not matched in $$m:"; cat $$m; exit 1; }; \
	done; \
	grep -A 3 '"flexvc_results_put_latency_ns": {' $$m | grep -E '"count": [1-9]' >/dev/null || { \
		echo "resume-smoke: flexvc_results_put_latency_ns count missing or zero in $$m:"; cat $$m; exit 1; }; \
	echo "resume-smoke: killed run resumed byte-identically ($$(grep -E '"flexvc_sweep_replications_(restored|simulated)_total"' $$m | tr -d ' \n'))"
