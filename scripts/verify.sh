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

echo "== go test -race ./..."
go test -race ./...

echo "== benchmark: go vet ./... && go test -short ./..."
(cd benchmark && go vet ./... && go test -short ./...)

echo "verify: OK"
