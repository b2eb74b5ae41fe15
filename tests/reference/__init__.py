"""Reference oracles of the production fast paths.

Each module keeps the straightforward implementation a hot path in
``src/repro`` was optimized from: the event-by-event replay, the per-tile
reorder loops, the per-tile tile geometry (swizzle order, payloads, group
membership and signal times), the scalar and per-candidate tuner loops, the
dict-keyed zero-bubble list scheduler and the independent pipeline critical
path.  The differential suites and the speedup benchmarks compare the
production code against them; nothing in ``repro`` imports them.
"""
