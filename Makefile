GO ?= go

.PHONY: all build vet lint test race chaos wal-crash ckpt-chaos churn-storm failover byzantine obs-chaos bench-check bench-smoke fuzz-smoke check census bench bench-run bench-compare fmt

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis (guarded fields, goroutine
# shutdown, frame dispatch, epoch fencing, leveled logging),
# printed as file:line for humans. It gates nothing here: the same
# analysis is the test TestRepositoryIsClean, which `race` (and so
# `check`) and tier-1 `go test ./...` already run. See
# docs/static-analysis.md.
lint:
	$(GO) run ./cmd/cwc-vet

# Fast suite (skips the chaos soak via -short).
test:
	$(GO) test -short ./...

# Full suite under the race detector, chaos soak included: every test in
# the module, once, never from the test cache.
race:
	$(GO) test -race -count=1 ./...

# The seven targets below are named selections of tests `race` already
# runs, for focused local runs; `check` does not depend on them. Each
# comment is the map from an invariant to the tests that hold it.

# Just the fault-injection soak: seeded chaos on every link, aggregates
# must be byte-identical to a fault-free run.
chaos:
	$(GO) test ./internal/cluster/ -run 'TestChaosSoak|TestClusterWorkerReconnects' -race -count=1 -v

# Master-durability harness: replay every truncation of a recorded WAL
# (a SIGKILL at any byte) plus the flaky-disk and fuzz-seed cases;
# recovery must never fail and aggregates must match the uncrashed run.
# TestWAL* also covers the reference-resolving replay: the fold-vs-live
# differential oracle, hostile records, lost records, the >64 MiB round.
wal-crash:
	$(GO) test ./internal/wal/ ./internal/server/ -run 'TestWAL|TestEveryByteTruncation|TestCorrupt|TestFaultyWriter|TestSplitContract|TestRoundRecordFailure|Fuzz' -race -count=1 -v

# Checkpoint-streaming chaos: workers killed silently at streamed-
# checkpoint thresholds (and the master killed mid-round) must cost at
# most one interval + one flush of recomputed input per failure, with
# aggregates byte-identical to a fault-free run.
ckpt-chaos:
	$(GO) test ./internal/cluster/ -run 'TestCkptChaos' -race -count=1 -v
	$(GO) test ./internal/server/ -run 'TestOfflineFailureEndToEnd' -race -count=1 -v

# Churn storm: the morning unplug wave (half the fleet unplugging in a
# narrow band with flapping replugs). Plug-aware placement must requeue
# fewer attempts and re-ship fewer bytes than a prediction-disabled
# baseline, with byte-identical aggregates; a draining phone, or one whose
# predicted charge window a piece would cross, never steals work, and the
# cut that gives stealing small pieces keeps the plan's makespan and every
# byte range.
churn-storm:
	$(GO) test ./internal/cluster/ -run 'TestChurnStorm' -race -count=1 -v
	$(GO) test ./internal/faults/ -run 'TestParseScenarioWave|TestWaveSchedule' -race -count=1 -v
	$(GO) test ./internal/server/ -run 'TestProactiveDrain|TestWALDrainLedger|TestRecordFailureDedupes|TestStealSkipsDrainingAndWindowedPhones|TestCutToGrainProperty' -race -count=1 -v

# Failover cluster e2e: kill the primary mid-round — the hot standby
# must promote within its lease, workers must rotate and finish with
# byte-identical aggregates, and a resurrected old primary (or the
# losing side of a partition) must be epoch-fenced, never double-
# accepting a result. Plus the replication-stream torn-cut harness, the
# re-anchor resync, a standby attaching to more state than one record
# may hold, and the shipped frames' ownership (the logged bytes shipped
# by reference, every reference given back).
failover:
	$(GO) test ./internal/cluster/ -run 'TestFailover' -race -count=1 -v
	$(GO) test ./internal/replica/ -run 'TestStandbyTornStream|TestStandbyResyncs|TestStandbyAttaches|TestShip|TestDroppedStandby' -race -count=1 -v
	$(GO) test ./internal/wal/ -run 'TestStreamReader|TestEncodeRecord' -race -count=1 -v
	$(GO) test ./internal/faults/ -run 'TestParseScenarioKillPrimary|TestParseScenarioPartition|TestParseScenarioFailoverErrors' -race -count=1 -v
	$(GO) test ./internal/protocol/ -run 'TestSendIsOneWrite|TestRecvHostileLength|TestRecvHostileFrames|TestRecvChunkedBodyGrowth|TestRecvTruncationAtEveryOffset|TestRecvOldFormat|TestEpochRoundTrip' -race -count=1 -v

# Result-integrity e2e: a fleet seeded with 20% liars (faults DSL) under
# replicated voting (k=2) must finish with byte-identical aggregates,
# every liar reputation-quarantined, no honest phone harmed, and the
# quarantine must survive an abrupt mid-run master kill via WAL record
# replay. Plus the voting/audit/tie-break unit suite, the rule that a
# verification copy is never stolen, and the DSL parser.
byzantine:
	$(GO) test ./internal/cluster/ -run 'TestByzantine|TestClusterCorruptResult' -race -count=1 -v
	$(GO) test ./internal/server/ -run 'TestVoting|TestAudit|TestQuarantine|TestClaimedDigest|TestReputation|TestStealNeverMovesAVoteCopy' -race -count=1 -v
	$(GO) test ./internal/faults/ -run 'TestParseScenarioByzantine|TestByzantineFor' -race -count=1 -v
	$(GO) test ./internal/tasks/ -run 'TestDigest' -race -count=1 -v

# Observability chaos: a seeded failover where every partition's merged
# master+worker timeline must stay causally ordered across the standby
# promotion (no orphan spans), a SIGQUIT'd master must leave a parseable
# black-box dump, and an obs-disabled run must ship zero telemetry
# frames with byte-identical aggregates. Failing runs save their trace
# JSONL and timeline under $$CWC_ARTIFACT_DIR when it is set.
obs-chaos:
	$(GO) test ./internal/cluster/ -run 'TestObsChaos|TestObsDisabledNeutrality' -race -count=1 -v
	$(GO) test ./internal/server/ -run 'TestFoldTelemetry|TestWorkerRestartNeverRegressesMasterCounters|TestTimeline|TestRoundEvents' -race -count=1 -v
	$(GO) test ./internal/obs/ -race -count=1

# The benchmark is a module of its own (bench/go.mod), so the root's
# ./... never reaches it: vet and test it here, or a change to an API it
# compiles against breaks it silently.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# One iteration of each packer benchmark (18x150, 50x500, 128x512), of
# each task kernel's Process benchmark, of each frame benchmark, of each
# header-codec and section-coder benchmark (the coder's MB/s and ratio
# on the three input kinds at 4 KB and 1 MiB), of the WAL append
# benchmark and of the replica ship benchmark, so they keep compiling
# and finishing; it measures nothing, but the kernels', the frames', the
# codec's, the log's and the shipper's allocs/op land in the log. The
# master's per-report cycle (receive, credit, next assign) runs 1000
# times, so its allocs/op is the steady state's; the standby's and
# replay's fold of a 1 MiB coded submit, its round and its report runs
# once, with its MB/s and bytes allocated per raw input byte.
bench-smoke:
	$(GO) test -run '^$$' -bench Greedy -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench Process -benchmem -benchtime 1x ./internal/tasks/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/protocol/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/wire/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/wal/
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/replica/
	$(GO) test -run '^$$' -bench WindowCycle -benchmem -benchtime 1000x ./internal/server/
	$(GO) test -run '^$$' -bench WALFoldApply -benchmem -benchtime 1x ./internal/server/

# Ten seconds of each fuzzer over bytes a peer sends or a disk holds: the
# frame decoder (FuzzRecv), the Huffman section coder against the
# one-code-a-step reference coder (FuzzCode), the one durable decoder,
# which recovery, the standby and a snapshot's records all go through
# (FuzzWALReducer), the integer kernels' in-place line parser against
# strconv (FuzzLineInt), each breakable task's pairwise fold, the way
# the master accumulates a job's partials, against one Aggregate of them
# all (FuzzAggregateFold), and the max and word-count kernels against the
# kernels they replaced, kept as test-only references (FuzzMaxInt,
# FuzzWordCount): the benchmark computes its reference answers with the
# same Process, so it cannot catch a kernel bug. Their seed corpora already run in every
# `go test`; this searches past them. The engine minimizes each input that
# finds new coverage for at most a second, not its default minute: it
# reports no executions meanwhile, and a few minimizations could hold
# every worker for the whole ten seconds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRecv$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzCode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReducer$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzLineInt$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/tasks/
	$(GO) test -run '^$$' -fuzz '^FuzzAggregateFold$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/tasks/
	$(GO) test -run '^$$' -fuzz '^FuzzMaxInt$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/tasks/
	$(GO) test -run '^$$' -fuzz '^FuzzWordCount$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/tasks/

# The pre-PR gate: everything that must be green before a change ships.
# Files gofmt would rewrite are listed and fail it. The census is printed
# last and gates nothing: it puts the size counts in the CI log.
check: vet build race bench-check bench-smoke fuzz-smoke
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	-@$(MAKE) --no-print-directory census

# The size counts ROADMAP's state of play quotes, so a re-anchor reads
# them off instead of recomputing them by hand. Lines are `wc -l` of
# non-test Go files; bench/ is its own module and is not counted.
GOLINES = find $(1) -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 cat | wc -l
census:
	@echo "non-test Go lines: root module $$($(call GOLINES,.))," \
		"internal/server $$($(call GOLINES,internal/server))," \
		"internal/obs $$($(call GOLINES,internal/obs))," \
		"internal/lint $$($(call GOLINES,internal/lint))"
	@echo "cwc-server flags:       $$(grep -cE 'flag\.(String|Int|Int64|Bool|Duration|Float64)\(' cmd/cwc-server/main.go)"
	@echo "server.Config fields:   $$(sed -n '/^type Config struct {/,/^}/p' internal/server/server.go | grep -cE '^	[A-Z][A-Za-z]* ')"
	@echo "cwc-worker flags:       $$(grep -cE 'flag\.(String|Int|Int64|Bool|Duration|Float64)\(' cmd/cwc-worker/main.go)"
	@echo "worker.Config fields:   $$(sed -n '/^type Config struct {/,/^}/p' internal/worker/worker.go | grep -cE '^	[A-Z][A-Za-z]* ')"
	@echo "frame types:            $$(grep -hE '^	Type[A-Za-z]+ +Type = "' internal/protocol/*.go | wc -l)"
	@echo "WAL record types:       $$(grep -cE '^	walRec[A-Za-z]+ +uint8 = ' internal/server/wal.go) (declared live types; retired numbers stay reserved, unnamed)"
	@echo "WAL writers:            $$(grep -h --exclude='*_test.go' 'm\.walWrite(' internal/server/*.go | wc -l) (non-test calls of m.walWrite)"
	@echo "report credit sites:    $$(grep -h --exclude='*_test.go' 'recordResultLocked(' internal/server/*.go | grep -vc '^func ') (non-test calls of recordResultLocked)"
	@echo "cwc-vet flags:          $$(grep -cE 'flag\.(String|Int|Int64|Bool|Duration|Float64)\(' cmd/cwc-vet/main.go)"
	@echo "make check prerequisites: $$(sed -n 's/^check://p' Makefile | wc -w)"
	@echo "goroutine spawn sites:  $$(grep -hE '^\s*go ' --exclude='*_test.go' internal/server/*.go | wc -l) (non-test go statements in internal/server)"
	@echo "mutex declarations:     $$(grep -rcE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '^\s*(var +)?[A-Za-z_]+ +sync\.(RW)?Mutex\b' cmd internal \
		| awk -F: '$$2 > 0 { sub(/\/[^\/]*$$/, "", $$1); sub(/.*\//, "", $$1); n[$$1] += $$2; t += $$2 } END { for (d in n) print n[d], d; print t, "total" }' \
		| sort -k1,1nr -k2 | awk '{ printf "%s%s %s", (NR > 1 ? ", " : ""), $$2, $$1 }') (non-test sync.Mutex/RWMutex fields and vars, by package)"
	@echo "//lint:ignore lines:    $$(grep -rhE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata --exclude-dir=bench '^\s*//lint:ignore ' . | wc -l) (non-test, non-testdata directives)"
	@echo "encoding/json importers: $$(grep -l '"encoding/json"' $$(find internal/protocol internal/replica internal/wal internal/server -name '*.go' -not -name '*_test.go' -not -name admin.go) | wc -l) (non-test files of protocol, replica, wal and server, admin.go aside)"
	@echo "by-name metric lookups outside the declarations: $$(grep -rhE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata --exclude-dir=bench --exclude-dir=obs '\.(Counter|Gauge|Histogram)\(' . | wc -l) (non-test Registry.Counter/Gauge/Histogram calls outside internal/obs; declarations use NewCounter/NewGauge/NewHistogram)"
	@echo "lint analyzers:         $$(sed -n '/^func Analyzers()/,/^}/p' internal/lint/lint.go | grep -cE '^		[A-Za-z]+Analyzer,') (lint.Analyzers())"
	@echo "internal/worker lines:  $$($(call GOLINES,internal/worker)) (non-test)"
	@echo "p.mu.Lock() sites:      $$(grep -h --exclude='*_test.go' 'p\.mu\.Lock()' internal/worker/*.go | wc -l) (non-test, internal/worker)"
	@echo "worker goroutine spawn sites: $$(grep -hE '^\s*go ' --exclude='*_test.go' internal/worker/*.go | wc -l) (non-test go statements in internal/worker)"
	@echo "wall-clock call sites:  $$(grep -rE 'time\.(Now|Since|Sleep|After|AfterFunc|NewTimer|NewTicker)\(' internal/server internal/worker internal/replica --include='*.go' | grep -vc '_test\.go:') (server/worker/replica)"

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's benchmark (bench/README.md): every workload, three
# untraced runs and one traced run each, into .bench_out/.
bench-run:
	bash bench/run.sh --reps 3

# Compare two result sets: make bench-compare A=base.json B=candidate.json
bench-compare:
	bash bench/run.sh compare $(A) $(B)

fmt:
	gofmt -w .
