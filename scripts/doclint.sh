#!/bin/sh
# doclint: fail if any package under ./internal/... or ./cmd/... lacks a
# package-level doc comment (the paper-equation + complexity contract of
# ISSUE 2; rendered by `go doc <pkg>`), or if a measurement package grows
# a new exported entry point that takes *graph.Graph instead of the
# graph.View it should accept. CI runs this as the doc-lint step.
set -eu

missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... ./cmd/...)
if [ -n "$missing" ]; then
    echo "doclint: packages missing a package comment:" >&2
    echo "$missing" >&2
    exit 1
fi
echo "doclint: all packages documented"

# View lint: measurement entry points accept the read-only graph.View, so
# the views still measured as views, a fault schedule's graph.MaskedView
# (incremental.MeasureFull, perfbench's epochs checks) and the daemon's
# mmap-backed graph.Mapped, are passed as they are. A *graph.Graph
# parameter on a new exported function in a measurement package would
# make every such caller copy or unwrap its view first; kernels is exempt
# (batched kernels are CSR-only by design, reached via graph.Materialize),
# as are methods and unexported helpers.
viewbad=""
for pkg in internal/walk internal/expansion internal/spectral internal/kcore \
           internal/centrality internal/community; do
    hits=$(grep -n '^func [A-Z][A-Za-z0-9]*(' "$pkg"/*.go 2>/dev/null \
        | grep -v '_test\.go:' \
        | sed 's/) (.*//;s/).*//' \
        | grep '\*graph\.Graph' || true)
    if [ -n "$hits" ]; then
        viewbad="$viewbad$pkg: $hits
"
    fi
done
if [ -n "$viewbad" ]; then
    echo "doclint: exported measurement entry points must take graph.View, not *graph.Graph:" >&2
    printf '%s' "$viewbad" >&2
    exit 1
fi
echo "doclint: measurement entry points accept graph.View"

# Godoc lint: every exported identifier in the packages whose exported
# surface other layers program against must carry a doc comment
# (scripts/godoclint, an AST-level check; the package-comment lint above
# only guarantees the package clause).
go run ./scripts/godoclint internal/incremental internal/obs internal/jobs internal/trustnetd
echo "doclint: exported identifiers documented (incremental, obs, jobs, trustnetd)"
