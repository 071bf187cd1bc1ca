#!/usr/bin/env sh
# Tier-1 gate: everything must build, vet clean, and pass the test suite
# under the race detector. Run from the repository root.
#
# internal/bench's full benchmark-shape replays are single-threaded
# simulation loops that take the better part of an hour under -race, so
# the race pass trims them with -short (only internal/bench checks it)
# and a second, race-free pass runs them in full.
set -eux
go build ./...
go vet ./...

# Formatting gate: the tree must be gofmt-clean.
unformatted=$(gofmt -l . 2>/dev/null || true)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

# Wall-clock lint: data-path packages charge the sim.Clock, never the
# wall clock, or seeded runs stop being reproducible. Non-test files
# under internal/ may only call time.Now/time.Since if listed in
# scripts/walltime_allowlist.txt.
allow=$(grep -v '^#' scripts/walltime_allowlist.txt | grep -v '^$' || true)
violations=$(grep -rn 'time\.Now(\|time\.Since(' internal/ --include='*.go' \
  | grep -v '_test\.go' | grep -vF "${allow:-@none@}" || true)
if [ -n "$violations" ]; then
  echo "wall-clock use outside scripts/walltime_allowlist.txt:" >&2
  echo "$violations" >&2
  exit 1
fi

go test -race -short ./...
go test ./internal/bench/
# Bench smoke: end-to-end seeded workload snapshot (virtual-time
# latencies + obs counters) proving the telemetry pipeline works. The
# benchsnap speed leg doubles as the hot-path regression gate: it fails
# the run if group commit stops halving slice-flush device writes, scan
# allocs/op rise above the pinned ceiling (≥30% under the pre-zero-copy
# baseline), or zone maps stop cutting selective-query files-read 5x.
# The tenant leg is the noisy-neighbor isolation gate: a tenant
# saturating its quota must leave the in-quota victim's produce p99
# within 2x its solo baseline while the unisolated control run blows
# that ceiling, or the snapshot fails.
sh scripts/bench.sh --smoke
# Chaos smoke: one seeded drill through the full fault mix (drops,
# delays, partitions, disk kills, corruption) asserting the core
# invariants — no acked-write loss, no duplicate appends, monotonic
# offsets, bit-identical replay — plus the group-commit drill (batched
# slice flushes under disk kills, replayed bit-identically).
go test -count=1 -run 'TestChaosInvariantsHold|TestChaosReplayIsBitIdentical|TestGroupCommitChaos' ./internal/chaos/
# Tenant gate: the QoS plane (quota buckets, WFQ scheduler) and the
# open-loop multi-tenant generator under the race detector, plus the
# noisy-neighbor chaos smoke — quota throttling and overload shedding
# interleaved with the fault schedule, the protected tenant never
# denied, zero acked-write loss across both tenants, bit-identical
# replay with the quota decisions in the digest.
go test -race -count=1 ./internal/tenant/ ./internal/workload/mtraffic/
go test -count=1 -run 'TestNoisyNeighborChaos' ./internal/chaos/
# Cache gate: the two-tier read cache under the race detector, plus the
# mixed chaos workload (produce + scan + scrub + tiering + cache) that
# asserts bit-identical replay and cached-read ≡ device-read. The
# benchsnap smoke above already enforces the cache's perf floor
# (hit rate ≥ 0.5, warm p99 ≥ 5x under cold, ~zero warm plan bytes).
go test -race -count=1 ./internal/cache/
go test -count=1 -short -run 'TestMixedWorkloadCacheCoherence' ./internal/chaos/
# Compression gate: the codecs and cost model under the race detector,
# plus the compressed mixed chaos smoke — tiering demotes logs onto the
# cold pool where extents compress, coherence probes and the final
# drain stay bit-identical across codec transitions, the cold tier
# never inflates, and the run replays to the same digest with the
# compression counters folded in. The benchsnap smoke above enforces
# the bytes-on-device ceiling (compressed cold tier <= 0.7x raw, scans
# byte-identical, every read CRC-verified over uncompressed bytes).
go test -race -count=1 ./internal/compress/
go test -count=1 -short -run 'TestCompressedMixedChaos|TestCompressionOffReplaysLegacyDigest' ./internal/chaos/
# Cluster gate: the membership/consensus plane under the race detector,
# plus the seeded failover chaos smoke — node kills (leader included)
# and split-brain metadata partitions with zero acked-write loss, every
# ack present in the replicated log, at most one leader per term, and
# the scripted leader+storage-node drill inside its virtual-time
# ceilings (detect <=80ms, producer gap <=120ms, rebalance <=2s). The
# benchsnap smoke above enforces the same ceilings on every snapshot.
go test -race -count=1 ./internal/cluster/
go test -count=1 -run 'TestClusterFailoverChaos|TestClusterSplitBrainChaos|TestClusterFailoverDrill|TestClusterRebalanceMovesBytes' ./internal/chaos/
# Elastic gate: runtime membership churn (joins through the replicated
# log's learner path, drain-then-tombstone removals) interleaved with
# node kills and metadata splits, replayed bit-identically from the
# seed, plus the scripted join-under-fire drill — a node joins a 5-node
# cluster mid-workload while a storage node is dead and the metadata
# plane is split, the join commits only through the replicated log,
# moves no more than the (1/(N+1))·(1+slack) bound, and every acked
# write stays readable exactly once. The benchsnap smoke above enforces
# the join leg's ceilings (gap <=120ms, moved <= bound, rebalance <=2s)
# on every snapshot.
go test -count=1 -run 'TestClusterElasticChaos|TestClusterElasticReplayIsBitIdentical|TestClusterElasticDrill' ./internal/chaos/
# Short fuzz smoke over the codec boundaries: a few seconds of input
# generation against the decoders that parse untrusted bytes.
go test -run='^$' -fuzz=FuzzDecode -fuzztime=5s ./internal/rowcodec/
go test -run='^$' -fuzz=FuzzOpen -fuzztime=5s ./internal/colfile/
go test -run='^$' -fuzz=FuzzDecodeSnapshot -fuzztime=5s ./internal/tableobj/
# The benchmark is a module of its own, outside the root ./...: vet it
# and run its unit tests (reference evaluators, determinism checks).
(cd perfbench && go vet ./... && go test ./...)
