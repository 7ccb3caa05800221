# Convenience targets; everything is plain `go` underneath.
# Run `make help` for the full list; `make ci` is the single gate —
# the CI pipeline (.github/workflows/ci.yml) runs exactly it, and
# `make check` (the historical pre-commit name) is an alias for it.

GO ?= go

# Fuzz budget per target; the nightly workflow shrinks it.
FUZZTIME ?= 30s

.PHONY: all help help-check roadmap-check fuzz-check build bench-build bench-smoke bench-pair spine test test-shuffle vet fmt-check lint ci check cover cover-ratchet bench bench-stream bench-rounds race experiments experiments-quick fuzz fuzz-smoke loc docker clean

all: build vet test

help:
	@echo "Targets:"
	@echo "  all                build + vet + test (default)"
	@echo "  help               this list"
	@echo "  help-check         fail when this list and the Makefile's targets differ"
	@echo "  fuzz-check         fail when a func Fuzz* in the root module and the fuzz targets of make fuzz differ"
	@echo "  roadmap-check      fail when a \"ROADMAP item N\" or \"item N(x)\" citation names neither a live item of ROADMAP.md nor a retired number"
	@echo "  ci                 the CI gate: help-check + roadmap-check + fuzz-check + vet + gofmt -l + bench-build + bench-smoke + spine + shuffled tests + race tests + GOMAXPROCS=1 core/bls/token/curve tests + arm64 build + 386/arm64 vets + 386 ff/curve/pairing/bls381 tests"
	@echo "  check              alias for ci (pre-commit habit)"
	@echo "  build              go build ./..."
	@echo "  bench-build        build + vet the nested benchmark/ module against this tree"
	@echo "  bench-smoke        run the nested benchmark/ module's tests: every workload, traced and untraced, at reduced size"
	@echo "  bench-pair         W=<workload> N=<pairs> BASE=<rev>: alternate benchmark/run.sh between BASE and this tree, print each run and the medians"
	@echo "  spine              ratchet: non-test packages importing internal/pairing directly vs .spine-allow; serving binaries link no oracle, experiment or variant-scheme code; internal/wire links no variant scheme"
	@echo "  test               go test ./..."
	@echo "  test-shuffle       go test -shuffle=on ./..."
	@echo "  vet                go vet ./..."
	@echo "  fmt-check          fail when gofmt -l lists a file"
	@echo "  cover              per-package coverage summary"
	@echo "  cover-ratchet      fail if total coverage drops below the .covermin floor"
	@echo "  bench              the full testing.B suite"
	@echo "  bench-stream       stream/relay fan-out at 1k and 50k subscribers -> BENCH_server.json"
	@echo "  bench-rounds       quorum-combine latency on a 3-of-5 beacon network (Test160, BLS12-381) -> BENCH_server.json"
	@echo "                     (everything else a user waits on: bash benchmark/run.sh --seed 1 -> benchmark/out/result.json)"
	@echo "  lint               staticcheck + govulncheck when installed (CI installs them)"
	@echo "  race               go test -race ./..."
	@echo "  experiments        regenerate the EXPERIMENTS.md tables (slow)"
	@echo "  experiments-quick  reduced sweeps at Test160"
	@echo "  fuzz               fuzz campaign, FUZZTIME=$(FUZZTIME) per target"
	@echo "  fuzz-smoke         PR-tier fuzz lane: the wire/armor/token/params decoders only"
	@echo "  loc                non-test Go lines outside benchmark/ (the ROADMAP item 3 figure): total, internal/archive, internal/bls + internal/backend, variants + baselines + reduction (kept out of the serving binaries by make spine), the pre-benchmark harness (item 4), internal/core + internal/bls381 (item 13), the serving tier (internal/timeserver, internal/token), the Type-1 stack (internal/ff + internal/curve + internal/pairing) and its math/big oracle (internal/ref), then generated assembly lines on their own line"
	@echo "  docker             build the serving-tier images (treserver, trerelay)"
	@echo "  clean              go clean ./..."

# Every rule in this file must have a line in `make help`, and every
# line there a rule: the first words of help's indented lines against
# the rule names.
help-check:
	@want=$$(grep -oE '^[a-z][a-z0-9-]*:' Makefile | tr -d : | sort -u); \
	got=$$($(MAKE) -s --no-print-directory help | awk '/^  [a-z]/ { print $$1 }' | sort -u); \
	missing=$$(echo "$$want" | grep -vxF -e "$$got"); \
	extra=$$(echo "$$got" | grep -vxF -e "$$want"); \
	if [ -n "$$missing$$extra" ]; then \
		echo "help-check FAILED: make help and the Makefile's targets differ"; \
		[ -z "$$missing" ] || echo "not in make help: $$missing"; \
		[ -z "$$extra" ] || echo "in make help but no rule: $$extra"; \
		exit 1; \
	fi; \
	echo "help-check: make help lists all $$(echo "$$want" | grep -c .) targets"

# Every fuzz target must be fuzzed: each `func Fuzz*` in a _test.go file
# of the root module (benchmark/ is its own module) against the
# `-fuzz <target> ... <package>` lines `make fuzz` runs, as
# "<package> <target>" pairs, in both directions.
fuzz-check:
	@want=$$(grep -rEo --include='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]+' . \
		| sed -E 's#^\./(.*)/[^/]*_test\.go:func (.*)#./\1 \2#' | sort -u); \
	got=$$($(MAKE) -s --no-print-directory -n fuzz | awk '{ for (i = 1; i < NF; i++) if ($$i == "-fuzz") print $$NF, $$(i+1) }' | sort -u); \
	missing=$$(echo "$$want" | grep -vxF -e "$$got"); \
	extra=$$(echo "$$got" | grep -vxF -e "$$want"); \
	if [ -n "$$missing$$extra" ]; then \
		echo "fuzz-check FAILED: the fuzz targets in the tree and make fuzz differ"; \
		[ -z "$$missing" ] || echo "not in make fuzz: $$missing"; \
		[ -z "$$extra" ] || echo "in make fuzz but no such target: $$extra"; \
		exit 1; \
	fi; \
	echo "fuzz-check: make fuzz runs all $$(echo "$$want" | grep -c .) fuzz targets"

# Citations of ROADMAP items in code and docs (ROADMAP item 9(a)):
# every "ROADMAP item N" or "item N(x)" in the Go files, this Makefile,
# .github/, README, DESIGN, EXPERIMENTS and docs/*.md must name a live
# item or sub-item of ROADMAP.md's open items, or a number on its
# retired list (a retired item retires its sub-items). docs/perf-log/
# is history and is not scanned. The first awk prints "L <n>" for each
# live item header ("N. **…", not the suggested order's "**Item…"),
# "L <n>(x)" for each "(x)" that opens a line inside it, and "R <ref>"
# for each reference before the colon of a retired-list line.
CITE := ROADMAP item [0-9]+(\([a-z]+\))?|item [0-9]+\([a-z]+\)
roadmap-check:
	@{ awk '/^## Open items/ { open = 1; next } /^## / { open = 0 } !open { next } \
		/^Retired numbers/ { ret = 1; next } ret && /^$$/ { ret = 0 } \
		ret && /^- / { s = $$0; sub(/:.*/, "", s); \
			while (match(s, /[0-9]+(\([a-z]+\))?/)) { print "R", substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH) } next } \
		/^[0-9]+\. \*\*/ && !/^[0-9]+\. \*\*Items? / { n = $$0; sub(/\..*/, "", n); print "L", n; next } \
		n != "" && match($$0, /^ +\([a-z]+\)/) { s = substr($$0, RSTART, RLENGTH); gsub(/ /, "", s); print "L", n s }' ROADMAP.md; \
	  { grep -rnoE --include='*.go' --exclude-dir=.bench_build '$(CITE)' . ; \
	    grep -rnoE '$(CITE)' Makefile .github README.md DESIGN.md EXPERIMENTS.md docs/*.md; } | sed 's/^/C /'; } \
	| awk '$$1 == "L" { live[$$2] = 1; next } $$1 == "R" { ret[$$2] = 1; next } \
		{ c++; ref = $$0; sub(/.*item /, "", ref); n = ref; sub(/\(.*/, "", n); \
		  if (!(ref in live) && !(ref in ret) && !(n in ret)) { bad++; print "stale citation: " substr($$0, 3) } } \
		END { if (bad) { print "roadmap-check FAILED: " bad " citation(s) name no live or retired ROADMAP item"; exit 1 } \
		      print "roadmap-check: all " c " citations name a live or retired ROADMAP item" }'

build:
	$(GO) build ./...

# The repo benchmark is its own module (benchmark/go.mod, `replace
# timedrelease => ../`), so `go build ./...` and `go vet ./...` from the
# root never see it: an internal/* signature change that breaks it would
# otherwise first fail at the benchmark driver. Build and vet only;
# nothing under benchmark/ is written (-mod=mod resolves the replace
# without a go.sum, the binary goes to /dev/null).
bench-build:
	GOFLAGS=-mod=mod $(GO) build -C benchmark -o /dev/null .
	GOFLAGS=-mod=mod $(GO) vet -C benchmark .

# Compiling is not running: the benchmark driver rejects a PR whose
# workloads fail or report an incorrect result, and that should first
# fail here. The module's own tests run every workload traced and
# untraced at reduced size, check `correct`, zero failed operations and
# the BENCHMARK.json contract (~20 s), and write nothing under
# benchmark/.
bench-smoke:
	GOFLAGS=-mod=mod $(GO) test -C benchmark -count=1 ./...

# A perf claim rests on alternating parent/change runs (choosing-metrics
# §8). BASE is exported by `git archive` into .bench_build/base, each
# pair runs both trees with the order flipped every pair, and every run's
# five end-to-end values are printed, then each side's median [q1..q3].
# Writes only under .bench_build/ (run.sh's --out included).
W ?= tokens-bls12381
N ?= 10
BASE ?= HEAD
PAIR := $(CURDIR)/.bench_build/pair
E2E := setup_s peak_rss_mb op_p50_ms op_p90_ms ops_per_s
bench-pair:
	@rm -rf .bench_build/base $(PAIR) && mkdir -p .bench_build/base $(PAIR)
	@git archive $(BASE) | tar -x -C .bench_build/base
	@for i in $$(seq $(N)); do for k in 0 1; do \
		if [ $$(( (i + k) % 2 )) = 1 ]; then side=base; dir=.bench_build/base; else side=change; dir=.; fi; \
		line=$$(bash $$dir/benchmark/run.sh --workload $(W) --seed 1 --seconds 20 --trace 0 --out $(PAIR)/out | tail -n 1); \
		case "$$line" in *'"correct":true'*'"failed":0,'*) ;; *) echo "$$side run $$i failed: $$line"; exit 1;; esac; \
		printf '%-6s %2d' $$side $$i; \
		for m in $(E2E); do v=$$(echo "$$line" | sed -E "s/.*\"$$m\":\{\"value\":([^,]*).*/\1/"); echo $$v >> $(PAIR)/$$side.$$m; printf ' %s=%.4g' $$m $$v; done; echo; \
	done; done
	@for side in base change; do printf '%-6s median [q1..q3]' $$side; for m in $(E2E); do sort -g $(PAIR)/$$side.$$m | awk -v m=$$m \
		'function q(p) { h = (NR-1)*p + 1; f = int(h); return v[f] + (h-f)*(v[f+1]-v[f]) } { v[NR] = $$1 } END { printf " %s=%.4g [%.4g..%.4g]", m, q(.5), q(.25), q(.75) }'; \
	done; echo; done
	@rm -rf .bench_build/base

# The crypto-spine ratchet (ROADMAP item 3: one way into the pairing
# layer). Everything above internal/backend should reach the pairing
# through backend.Backend; the packages that still import
# internal/pairing directly, outside their tests, are listed one per
# line in .spine-allow. A package not on the list fails the build; a
# listed package that no longer imports it passes with a reminder to
# trim the list, so the count can only go down. The second check keeps
# the serving binaries' dependency graph free of the math/big oracles
# (internal/ref), of experiment code (internal/bench,
# internal/baseline/..., internal/reduction) and of the paper's variant
# schemes (internal/idtre, hibe, resilient, multiserver, policylock:
# receiver-side constructions the passive server never runs; their
# public names live in tre/variants). The third keeps internal/wire,
# which every serving binary links, free of the variant schemes: each
# owns its own encoding on wire's cursor.
SERVING := ./cmd/treserver ./cmd/trerelay ./cmd/trethreshold ./cmd/trectl
VARIANTS := idtre|hibe|resilient|multiserver|policylock
spine:
	@got=$$($(GO) list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... \
		| awk '{ for (i = 2; i <= NF; i++) if ($$i == "timedrelease/internal/pairing") print $$1 }' \
		| sed 's#^timedrelease/##' | sort); \
	new=$$(echo "$$got" | grep -vxF -f .spine-allow); \
	gone=$$(grep -vxF -e "$$got" .spine-allow); \
	echo "spine: $$(echo "$$got" | grep -c .) packages import internal/pairing directly ($$(grep -c . .spine-allow) allowed)"; \
	if [ -n "$$gone" ]; then \
		echo "spine: no longer importing it — trim .spine-allow:"; echo "$$gone"; \
	fi; \
	if [ -n "$$new" ]; then \
		echo "spine ratchet FAILED: new direct importers of internal/pairing (go through backend.Backend):"; echo "$$new"; exit 1; \
	fi
	@bad=$$($(GO) list -deps $(SERVING) | grep -xE 'timedrelease/internal/(ref|bench|reduction|baseline(/.*)?|$(VARIANTS))'); \
	if [ -n "$$bad" ]; then \
		echo "spine FAILED: a serving binary links oracle, experiment or variant-scheme code:"; echo "$$bad"; exit 1; \
	fi; \
	echo "spine: serving binaries link none of internal/ref, internal/bench, internal/baseline/..., internal/reduction, internal/{idtre,hibe,resilient,multiserver,policylock}"
	@bad=$$($(GO) list -deps ./internal/wire | grep -xE 'timedrelease/internal/($(VARIANTS))'); \
	if [ -n "$$bad" ]; then \
		echo "spine FAILED: internal/wire links a variant scheme (the variant owns its encoding):"; echo "$$bad"; exit 1; \
	fi; \
	echo "spine: internal/wire links no variant scheme"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Shuffled run: catches hidden test-order dependencies.
test-shuffle:
	$(GO) test -shuffle=on ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Deep static analysis and known-vulnerability scan. Soft-gated on the
# tools being installed so a bare checkout still passes `make ci`; the
# CI pipeline installs both, so there they always run.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck skipped: tool not installed (CI enforces)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck skipped: tool not installed (CI enforces)"; \
	fi

# The CI gate: `make help` against the rules, ROADMAP citations against
# its items, fuzz targets against `make fuzz`, static checks, the nested benchmark module's build and
# its reduced-size run, one import ratchet on the pairing layer, one
# shuffled test run, one race run — each pass exactly once (the race
# detector covers the WHOLE module; the concurrency reaches from the
# scheme's prepared-key slot and pooled arenas up through the serving
# path, so nothing is exempt). This is what .github/workflows/ci.yml executes.
# The first recipe line runs the packages whose fork-joins split across
# cores (core's checked encapsulation, bls's batch verification and the
# token unblinding built on it, curve's HashSum, which hashes its
# candidates per MSM chunk, one chunk per processor) on one processor,
# where parallel.For runs every index inline and in order. The second pins that the tree builds
# where the architecture forks (the amd64 MULX/ADX kernels, ff's
# mont_amd64.s and bls381's fe_amd64.s, both printed by ff's genMontAsm)
# are absent: a 64-bit non-amd64 build, and 32-bit and arm64 vets of
# both field packages' no-assembly file sets, all offline from GOROOT;
# host vet's asmdecl and framepointer passes cover the assembly itself.
# The third runs the field, curve, Type-1 pairing and BLS12-381 tests on
# a 32-bit target, where big.Word is 32 bits wide and no assembly exists:
# the recoder's big.Int entry, the Straus walk under ScalarMult and MSM,
# the Miller loops on point limbs, and the Go fe product under the whole
# pairing and hash suite run there, not only compile (~50 s).
ci: help-check roadmap-check fuzz-check vet fmt-check lint bench-build bench-smoke spine test-shuffle race
	GOMAXPROCS=1 $(GO) test -short ./internal/core/ ./internal/bls/ ./internal/token/ ./internal/curve/
	GOARCH=arm64 $(GO) build ./... && GOARCH=386 $(GO) vet ./internal/bls381/ && GOARCH=386 $(GO) vet ./internal/ff/ && GOARCH=arm64 $(GO) vet ./internal/ff/ && GOARCH=arm64 $(GO) vet ./internal/bls381/
	GOARCH=386 $(GO) test -short ./internal/ff/ ./internal/curve/ ./internal/pairing/ ./internal/bls381/

# Historical pre-commit name.
check: ci

# Per-package coverage summary.
cover:
	$(GO) test -cover ./...

# Coverage ratchet: total statement coverage must not drop below the
# checked-in floor in .covermin. Raise the floor when coverage durably
# improves; never lower it to make a PR pass.
cover-ratchet:
	@$(GO) test -count=1 -coverprofile=coverage.out ./... >/dev/null
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	min=$$(cat .covermin); \
	echo "total coverage $$total% (floor $$min%)"; \
	if awk -v t="$$total" -v m="$$min" 'BEGIN { exit !(t+0 < m+0) }'; then \
		echo "coverage ratchet FAILED: $$total% is below the $$min% floor in .covermin"; exit 1; \
	fi

# The full testing.B suite (mirrors the experiment workloads).
bench:
	$(GO) test -bench=. -benchmem ./...

# The two targets below are the serving-path cells the repository
# benchmark does not cover (benchmark/README.md, "Not covered on
# purpose"); fetch, catch-up, seal/open, cold start, tokens and the
# pairing/field probes are `bash benchmark/run.sh` workloads.

# Broadcast fan-out cells only: N concurrent /v1/stream subscribers on
# an origin server and on a stateless relay, publish→delivery wakeup
# latency per event. Counts past the FD limit run over an in-memory
# transport (transport=inmem in the row). -merge keeps the rounds rows
# in BENCH_server.json intact.
bench-stream:
	$(GO) run ./cmd/treload -preset Test160 -mixes stream,relay -subscribers 1000,50000 -merge -out BENCH_server.json

# Beacon-round quorum cells only, on both backends: concurrent receivers
# combining 3-of-5 partial updates per op (n parallel fetches + k
# pairing verifications + one Lagrange combine). -merge keeps the
# fan-out rows intact.
bench-rounds:
	$(GO) run ./cmd/treload -preset Test160,BLS12-381 -mixes rounds -merge -out BENCH_server.json

# Race detector across the whole module (exercises the parallel pairing
# products, the batch verification pool and the chaos-test harness),
# shuffled so the storm scenarios also prove order-independence under
# the detector.
race:
	$(GO) test -race -shuffle=on ./...

# Regenerate the EXPERIMENTS.md tables at full scope (~2-3 minutes).
experiments:
	$(GO) run ./cmd/trebench

experiments-quick:
	$(GO) run ./cmd/trebench -quick

# Fuzz campaign over every wire decoder (including the armored round
# ciphertext format, the parameter-set parser, the policy-lock ciphertext
# and the HIBE node key and tree ciphertext), the differential field-arithmetic targets
# (Montgomery backend vs big.Int reference, plus the BLS12-381 base
# field, Fp12 tower and compressed G2 decoder, the BLS12-381 endomorphism
# ladders vs the windowed ladder, and the multi-scalar multiplication vs
# the naive sum on both backends), the Type-1 point decoder's subgroup
# verdict vs the Jacobian [q]P oracle, the client's HTTP
# update parsing, the beacon round↔label mapping, the metrics JSON
# encoder and the crc-framed log replay under updates.log and spend.log.
# Checked-in seed corpora live under <pkg>/testdata/fuzz/<Target>/.
# Override the per-target budget with FUZZTIME=10s (nightly CI does).
fuzz:
	$(GO) test -run XXX -fuzz FuzzUnmarshalKeyUpdate -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalCCACiphertext -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalEnvelope -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzCatchUpDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzArmoredDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzTokenRequestDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzTokenDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalServerPublicKey -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzParamsUnmarshal -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalPolicyCiphertext -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzHIBEDecode -fuzztime $(FUZZTIME) ./internal/hibe
	$(GO) test -run XXX -fuzz FuzzUnmarshalSubgroup -fuzztime $(FUZZTIME) ./internal/curve
	$(GO) test -run XXX -fuzz FuzzRoundFromLabel -fuzztime $(FUZZTIME) ./internal/beacon
	$(GO) test -run XXX -fuzz FuzzFpArith -fuzztime $(FUZZTIME) ./internal/ff
	$(GO) test -run XXX -fuzz FuzzFp2Arith -fuzztime $(FUZZTIME) ./internal/ff
	$(GO) test -run XXX -fuzz FuzzFeArith -fuzztime $(FUZZTIME) ./internal/bls381
	$(GO) test -run XXX -fuzz FuzzFp12Arith -fuzztime $(FUZZTIME) ./internal/bls381
	$(GO) test -run XXX -fuzz FuzzG2Marshal -fuzztime $(FUZZTIME) ./internal/bls381
	$(GO) test -run XXX -fuzz FuzzScalarMult -fuzztime $(FUZZTIME) ./internal/bls381
	$(GO) test -run XXX -fuzz FuzzMSM -fuzztime $(FUZZTIME) ./internal/backend
	$(GO) test -run XXX -fuzz FuzzClientDecodeUpdate -fuzztime $(FUZZTIME) ./internal/timeserver
	$(GO) test -run XXX -fuzz FuzzMetricsSnapshot -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run XXX -fuzz FuzzFrameReplay -fuzztime $(FUZZTIME) ./internal/archive

# PR-tier fuzz smoke lane: only the attacker-reachable decoders (wire
# formats, the armored ciphertext container, the token formats, the
# server key and parameter set FetchBootstrap decodes from whatever URL
# it is given, the Type-1 point decoder and its subgroup test), each
# for a short budget — CI runs `make fuzz-smoke FUZZTIME=5s` on every
# pull request; the full campaign stays nightly.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzUnmarshalKeyUpdate -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalCCACiphertext -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalEnvelope -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzCatchUpDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzArmoredDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzTokenRequestDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzTokenDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalServerPublicKey -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzParamsUnmarshal -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run XXX -fuzz FuzzUnmarshalSubgroup -fuzztime $(FUZZTIME) ./internal/curve

# The size figure ROADMAP item 3 tracks: lines of non-test Go outside
# the benchmark/ module (plain `wc -l`: blanks and comments count, so
# deleting comments is visible as what it is), for the whole repo, for
# internal/archive, for the BLS-over-backend layer, for the §5 variants,
# baselines and the appendix reduction (code `make spine` keeps out of
# the serving binaries' dependency graph) and for the pre-benchmark
# harness ROADMAP item 4 retires, for internal/core and internal/bls381
# (ROADMAP item 13's acceptance figures), for the serving tier,
# internal/timeserver and internal/token, and for the Type-1 stack
# (internal/ff + internal/curve + internal/pairing) beside its math/big
# oracle, internal/ref (item 3(c)). Generated assembly prints on a line
# of its own, outside the Go total, so moving code into a .s file cannot
# meet a line-count target. Quote it in simplicity PRs.
loc:
	@printf 'non-test Go lines outside benchmark/: '; \
		find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@printf 'internal/archive:                     '; \
		find internal/archive -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/bls + internal/backend:      '; \
		find internal/bls internal/backend -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'variants + baselines + reduction:     '; \
		find internal/idtre internal/hibe internal/resilient internal/multiserver internal/policylock internal/reduction internal/baseline -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/bench + cmd/treload + cmd/trebench: '; \
		find internal/bench cmd/treload cmd/trebench -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/core:                        '; \
		find internal/core -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/bls381:                      '; \
		find internal/bls381 -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/timeserver:                  '; \
		find internal/timeserver -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/token:                       '; \
		find internal/token -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/ff + internal/curve + internal/pairing: '; \
		find internal/ff internal/curve internal/pairing -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/ref:                         '; \
		find internal/ref -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'generated assembly (not in the total): '; \
		find . -name '*.s' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# Serving-tier container images: one multi-stage Dockerfile, two final
# stages (origin time server and stateless fan-out relay).
docker:
	docker build --target treserver -t timedrelease/treserver .
	docker build --target trerelay -t timedrelease/trerelay .

clean:
	$(GO) clean ./...
