# Tier-1 verification in one command.
.PHONY: all check build test smoke bench chaos ccache mc multicore latency ndr policy scale reconfig charged-diff clean

all: build

build:
	dune build

test:
	dune runtest

# A fast end-to-end sanity pass: the PMD runtime and the per-stage cycle
# attribution experiments both exit nonzero on failure.
smoke:
	dune exec bench/main.exe -- pmd stages

# The chaos bench: every fault plan against every leg, exact packet
# conservation and post-recovery throughput enforced (exit nonzero on any
# LEAK/DEGRADED row). Writes BENCH_chaos.json.
chaos:
	dune exec bench/main.exe -- chaos --json

# The computational-cache bench: learned classifier tier vs dpcls-only
# over the NSX ruleset sweep; exits nonzero on any ccache/dpcls decision
# mismatch or if the 103k-rule point falls under 2x. Writes
# BENCH_ccache.json.
ccache:
	dune exec bench/main.exe -- ccache --json

# The schedule explorer: exhaustive exploration of the concurrency
# model's interleavings at the small bound plus 500 sampled schedules at
# the large (crash/restart) bound; any invariant violation exits nonzero
# and writes its shrunk replay artifact to MC_failure.txt.
mc:
	dune exec bench/main.exe -- mc

# True multicore: the Engine_domains rig at 1/2/4/8 PMD domains,
# wall-clock Mpps next to the virtual-time curve, exact packet
# conservation enforced. The 1->2 domain monotone-scaling gate arms only
# on multi-core hosts (single-core runs are time-sliced and
# informational). Writes BENCH_multicore.json.
multicore:
	dune exec bench/main.exe -- multicore --json

# Per-packet sojourn-time distributions: the offered-load ladder, bursty
# on-off rung and 1-4 hop service chains per leg, gated on timestamp
# conservation (samples == delivered), zero loss below capacity and
# p99/p50 tail shape. Writes BENCH_latency.json.
latency:
	dune exec bench/main.exe -- latency --json

# RFC 2544 non-drop-rate binary search per leg; the reported rate must
# re-probe loss-free and sit below every losing probe. Writes
# BENCH_ndr.json.
ndr:
	dune exec bench/main.exe -- ndr --json

# The policy bench: compile the whole catalog ladder, prove
# translate(compile(p)) = eval(p) with the symbolic checker (any
# divergence exits nonzero and writes POLICY_counterexample.txt), verify
# every seeded compiler mutation is caught with a concretely diverging
# packet, and replay compiled policies through the kernel / AF_XDP /
# PMD-deferred legs against the eval oracle with exact transmission
# conservation. Writes BENCH_policy.json.
policy:
	dune exec bench/main.exe -- policy --json

# The sustained-scale bench: 1M+ concurrent connections from a churning
# Zipf mix at 10k conns/s over a sharded conntrack, with rule churn
# driving the incremental revalidator against the flush-all oracle every
# round (any divergence exits nonzero), exact packet conservation, a
# bounded-heap gate in steady state and p50/p99 upcall latency. Writes
# BENCH_scale.json.
scale:
	dune exec bench/main.exe -- scale --json

# Live reconfiguration under load: OVSDB-driven churn plans applied
# through the FLOW_MOD wire path against running traffic on every engine
# leg, gating the two-phase shadow-table upgrade hitless (offered ==
# delivered exactly, zero vanished packets), the naive in-place swap
# measurably lossy, and the incremental revalidator 0-divergent at every
# churn event; plus the atomic classifier-pointer cutover on real OCaml
# domains. Writes BENCH_reconfig.json.
reconfig:
	dune exec bench/main.exe -- reconfig --json

# Charged-time regression diff against another revision: every
# deterministic bench experiment's stdout on REV vs the working tree
# (wall-clock lines exempt); exits nonzero on any difference. Not part
# of check: a change that moves charged numbers on purpose shows them
# here. Usage: make charged-diff REV=<rev>
charged-diff:
	scripts/charged-diff.sh $(REV)

check: build test smoke chaos ccache mc multicore latency ndr policy scale reconfig

bench:
	dune exec bench/main.exe

clean:
	dune clean
