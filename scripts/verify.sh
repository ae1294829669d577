#!/bin/sh
# Pre-merge verification gate: static analysis, a full build, the test
# suite under the race detector, and the benchmark module, which
# imports internal/... but is a module of its own that ./... does not
# reach. Run from the repository root (make verify does).
set -eu

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# The two packages whose tests re-exec race-built worker and daemon
# subprocesses against fixed lease and campaign deadlines run after the
# rest, one at a time: side by side on a small host they starve each
# other past those deadlines without any race being reported. Race-built
# subprocesses also take internal/jobd past go test's ten-minute default
# for a whole package, hence the timeout.
serial="ptlsim/internal/jobd ptlsim/internal/fleet"
echo "== go test -race ./... (all but: $serial)"
go test -race $(go list ./... | grep -vxF "$(printf '%s\n' $serial)")
echo "== go test -race -p 1 $serial"
go test -race -p 1 -timeout 30m $serial

echo "== benchmark: go vet ./... && go test -short ./..."
(cd benchmark && go vet ./... && go test -short ./...)

echo "verify: OK"
