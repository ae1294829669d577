GO ?= go

.PHONY: build test race vet verify soak serve-smoke restart-soak fuzz-smoke fuzz-soak fleet-soak load-soak obs-smoke ooo-profile seq-profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify is the full pre-merge gate: vet, build, and the test suite
# under the race detector.
verify:
	./scripts/verify.sh

# soak runs the supervisor end to end under a short randomized fault
# schedule (SOAK_ITERS/SOAK_SEED tune length and reproducibility).
soak:
	./scripts/soak.sh

# serve-smoke boots the ptlserve job service, runs one job through the
# HTTP API end to end, and drains it (SERVE_PORT/SERVE_DATA tune the
# listen port and data directory).
serve-smoke:
	./scripts/serve_smoke.sh

# restart-soak SIGKILLs the ptlserve daemon at randomized points over a
# job batch and verifies the durable job store recovers every job with
# bit-identical output (SOAK_ROUNDS/SOAK_JOBS/SOAK_SEED tune length and
# reproducibility).
restart-soak:
	./scripts/restart_soak.sh

# fuzz-smoke runs each fuzz target briefly (the -fuzz flag accepts one
# target per invocation) — the decoder, the job spec a client submits,
# the three readers of bytes a crash can tear (the job store's replay,
# the journal reader and the checkpoint file reader), the differential check of the host-side
# translation cache against bare page walks, and the cache hierarchy's
# miss buffers against the list they replaced. A regression smoke over the seed corpus plus a short
# mutation budget, not a campaign. Longer runs:
# go test ./internal/decode/ -fuzz FuzzBuildBB -fuzztime 10m
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/decode/ -run '^$$' -fuzz '^FuzzBuildBB$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/decode/ -run '^$$' -fuzz '^FuzzBuildBBPaged$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jobd/ -run '^$$' -fuzz '^FuzzStoreReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jobd/ -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/supervisor/ -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot/ -run '^$$' -fuzz '^FuzzReadFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -run '^$$' -fuzz '^FuzzTranslateCoherent$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache/ -run '^$$' -fuzz '^FuzzMSHRAlloc$$' -fuzztime $(FUZZTIME)

# fleet-soak runs a ptlsweep campaign across three ptlserve daemons
# with a SIGKILL and a chaosnet network partition mid-sweep, verifying
# zero lost cells, zero duplicated verdicts, and bit-identical replica
# FNVs (FLEET_JOBS/FLEET_SEED/FLEET_DATA tune size, reproducibility,
# and the output directory; the acceptance campaign is FLEET_JOBS=1000).
fleet-soak:
	./scripts/fleet_soak.sh

# load-soak floods one ptlserve daemon from four competing tenants
# (greedy, latency-sensitive, bandwidth-capped, deadline-carrying) and
# asserts the admission layer's overload behavior: zero accepted jobs
# lost or duplicated, per-tenant quota 429s, deadline shedding, no
# priority inversion, bounded admission latency. LOAD_JOBS sizes the
# storm (default 800; CI acceptance runs 10000); LOAD_PORT and
# LOAD_DATA tune the port and artifact directory.
load-soak:
	./scripts/load_soak.sh

# obs-smoke runs a small workload with the pipeline event log attached,
# renders it through every exporter (Chrome trace / Konata / text),
# then pushes one job through a live ptlserve and asserts GET /metrics
# exposes the job-level Prometheus series (SERVE_PORT tunes the port).
obs-smoke:
	./scripts/obs_smoke.sh

# fuzz-soak runs a differential conformance fuzz campaign: generated
# instruction sequences dual-executed (reference interpreter vs OoO
# core under the commit oracle), with divergences shrunk to minimal
# reproducers. FUZZ_SEQS/FUZZ_SEED/FUZZ_DATA tune length,
# reproducibility, and the output directory.
fuzz-soak:
	./scripts/fuzz_soak.sh

# ooo-profile attributes the out-of-order core loop's host time to its
# pipeline stages (fetch / rename / issue / execute / writeback /
# commit) and lists its allocation sites, from BenchmarkCoreCycle under
# pprof: the per-layer view behind benchmark/'s busy_cycles_per_s.
# Output goes to ooo-profile-data/.
ooo-profile:
	./scripts/ooo_profile.sh

# seq-profile attributes the functional engine's host time to the
# functions on its fetch / execute / memory path (the run loop, Step, fetch, the
# lowered-block step loop, the vm and mem translation path, the BB-cache
# lookup) and
# lists its allocation sites, from BenchmarkSeqStep under pprof: the
# per-layer view behind benchmark/'s rsync_seq insns_per_s. Output goes
# to seq-profile-data/.
seq-profile:
	./scripts/seq_profile.sh
